// Package conformance is the differential- and metamorphic-testing oracle
// that pins the repo's three renderers against each other:
//
//   - internal/pt      — the double-precision float reference, whose pixels
//     are also the GPU texture-mapping baseline's,
//   - internal/ptlut   — the same arithmetic from a memoized mapping table,
//   - internal/pte     — the fixed-point [28, 10] accelerator datapath.
//
// The paper's HAR claim (§6, Fig. 11/13) is that the PTE's fixed-point
// output is visually lossless versus the GPU float path. This package makes
// that claim a machine-checked invariant: a deterministic corpus of
// (projection × filter × pose) cases — including the poles, the ERP
// longitude seam, and cube face edges/corners where clamp/wrap behaviour
// diverges first — is swept through all three, asserting
//
//   - byte identity where it must hold, and
//   - per-case error budgets (max abs error, MAE, PSNR, SSIM, fraction of
//     differing pixels) for pte vs pt, where fixed-point quantization makes
//     bit-equality impossible by design.
//
// The renderers share one row-band driver (pt.RunBands) and one edge policy
// (frame.Resolve), so the three identities protect different things: pt
// serial vs RenderParallel checks the driver and the frame pool against the
// plain double loop; exact-mode ptlut vs pt checks the table packer and the
// Apply kernels against Mapper.Map + Sample — two genuinely separate code
// paths. pte.Render vs pte.RenderParallel holds by construction
// (pte.Render is the one-worker RenderParallel); its check guards that
// construction — no state leaking across P-MEM bands — and
// FuzzRenderFamily extends all of them to random dims and worker counts.
//
// Results are checked into a golden manifest (testdata/golden.json,
// regenerated with `evrconform -update`) so every future change to a render
// path, the fixed-point library, or the projection math is gated against
// silent divergence. Metamorphic properties (identity-pose passthrough,
// yaw-equivariance, seam continuity, projection round trips) provide
// oracle-free cross-checks on the reference itself.
package conformance

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/ptlut"
	"evr/internal/quality"
)

// Viewport geometry shared by every corpus case: a 64×64 FOV frame with the
// paper's 90°×90° field of view — small enough that the full corpus runs in
// seconds, large enough that pole/seam/edge neighborhoods span many pixels.
const (
	vpSize = 64
	fovRad = math.Pi / 2
)

// Input panorama dimensions per projection: 2:1 for ERP, 3:2 (80×80 faces)
// for the cubemap layouts.
const (
	erpW, erpH   = 256, 128
	cubeW, cubeH = 240, 160
)

// Case is one conformance corpus entry: a (projection, filter, pose) triple
// plus the worker count used for the parallel byte-identity checks.
type Case struct {
	Name       string
	Projection projection.Method
	Filter     pt.Filter
	Pose       geom.Orientation
	// Label classifies the pose: "identity", "pole", "seam", "edge",
	// "rolled", or "random". Error budgets are assigned per (filter, label)
	// class.
	Label string
	// Fast marks the subset run by the quick CI gate and unit tests.
	Fast bool
	// Workers is the worker count for the pt/pte parallel identity checks.
	Workers int
}

// PTConfig returns the float-reference render configuration of the case.
func (c Case) PTConfig() pt.Config {
	return pt.Config{
		Projection: c.Projection,
		Filter:     c.Filter,
		Viewport: projection.Viewport{
			Width: vpSize, Height: vpSize,
			FOVX: fovRad, FOVY: fovRad,
		},
	}
}

// poseSpec is one corpus pose before expansion over projections × filters.
type poseSpec struct {
	label string
	name  string
	o     geom.Orientation
	fast  bool
}

// corpusPoses returns the deterministic pose grid: the degenerate and
// boundary poses the issue calls out, plus seeded pseudo-random poses.
func corpusPoses() []poseSpec {
	specs := []poseSpec{
		{"identity", "identity", geom.Orientation{}, true},
		{"pole", "pole-up", geom.Orientation{Pitch: math.Pi / 2}, true},
		{"pole", "pole-down", geom.Orientation{Pitch: -math.Pi / 2}, false},
		{"pole", "pole-up-yawed", geom.Orientation{Yaw: 1.1, Pitch: math.Pi/2 - 0.05}, false},
		{"seam", "seam-center", geom.Orientation{Yaw: math.Pi}, true},
		{"seam", "seam-offset", geom.Orientation{Yaw: -math.Pi + 0.01, Pitch: 0.3}, false},
		{"edge", "edge-front-right", geom.Orientation{Yaw: math.Pi / 4}, true},
		{"edge", "edge-back-left", geom.Orientation{Yaw: 3 * math.Pi / 4}, false},
		{"edge", "corner-111", geom.Orientation{Yaw: math.Pi / 4, Pitch: math.Asin(1 / math.Sqrt(3))}, false},
		{"rolled", "rolled", geom.Orientation{Yaw: 0.5, Pitch: -0.2, Roll: 0.4}, false},
	}
	// Seeded random poses (SplitMix64): reproducible across runs and
	// platforms, no dependence on math/rand's generator internals.
	state := uint64(0xEE2019C0FFEE)
	for i := 0; i < 5; i++ {
		o := geom.Orientation{
			Yaw:   (rand01(&state)*2 - 1) * math.Pi,
			Pitch: (rand01(&state) - 0.5) * math.Pi * 0.98,
			Roll:  (rand01(&state)*2 - 1) * 0.5,
		}
		specs = append(specs, poseSpec{"random", fmt.Sprintf("random-%d", i), o, i == 0})
	}
	return specs
}

// splitmix64 advances the state and returns the next pseudo-random word.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rand01 returns a uniform float64 in [0, 1).
func rand01(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / (1 << 53)
}

// Corpus returns the full deterministic case list: every pose × every
// projection × both filters.
func Corpus() []Case {
	var cases []Case
	i := 0
	for _, m := range projection.Methods {
		for _, f := range []pt.Filter{pt.Nearest, pt.Bilinear} {
			for _, p := range corpusPoses() {
				cases = append(cases, Case{
					Name:       fmt.Sprintf("%s/%s/%s", m, f, p.name),
					Projection: m,
					Filter:     f,
					Pose:       p.o,
					Label:      p.label,
					Fast:       p.fast,
					Workers:    2 + i%3,
				})
				i++
			}
		}
	}
	return cases
}

// FastCorpus returns the quick-gate subset of Corpus: one pose per label
// class, still covering all projections and filters.
func FastCorpus() []Case {
	var fast []Case
	for _, c := range Corpus() {
		if c.Fast {
			fast = append(fast, c)
		}
	}
	return fast
}

// stressCap is a high-contrast disk painted onto the test sphere. The caps
// sit exactly on the regions the corpus stresses — the poles, the ERP seam,
// a cube corner, and a cube face edge — so a sampling error there moves
// pixels with visible contrast instead of disappearing into a flat gradient.
type stressCap struct {
	dir    geom.Vec3
	radius float64
	color  [3]byte
}

var stressCaps = []stressCap{
	{geom.Vec3{Y: 1}, 0.50, [3]byte{240, 80, 60}},                          // north pole
	{geom.Vec3{Y: -1}, 0.40, [3]byte{200, 70, 220}},                        // south pole
	{geom.Vec3{Z: -1}, 0.45, [3]byte{70, 220, 90}},                         // ERP seam center (θ = π)
	{geom.Vec3{X: 1, Y: 1, Z: 1}.Normalize(), 0.35, [3]byte{70, 110, 235}}, // cube corner
	{geom.Vec3{X: 1, Z: 1}.Normalize(), 0.30, [3]byte{235, 210, 70}},       // +Z/+X face edge
}

// paint returns the deterministic scene color along a view direction:
// stress caps (bright fill with a dark rim) over a smooth low-frequency
// gradient. Content is defined on the sphere, so it is continuous across
// the ERP seam and cube face boundaries — exactly the property the seam and
// edge budgets rely on.
func paint(dir geom.Vec3) (r, g, b byte) {
	for _, c := range stressCaps {
		if ang := dir.Angle(c.dir); ang < c.radius {
			if ang > 0.82*c.radius {
				return c.color[0] / 4, c.color[1] / 4, c.color[2] / 4
			}
			return c.color[0], c.color[1], c.color[2]
		}
	}
	s := geom.FromCartesian(dir)
	base := 120 + 70*math.Sin(3*s.Theta)*math.Cos(2*s.Phi)
	return clampByte(base + 24*math.Sin(2*s.Phi+1)),
		clampByte(base + 24*math.Cos(s.Theta)),
		clampByte(0.85 * base)
}

func clampByte(x float64) byte {
	if x < 0 {
		return 0
	}
	if x > 255 {
		return 255
	}
	return byte(x)
}

var (
	inputMu    sync.Mutex
	inputCache = map[projection.Method]*frame.Frame{}
)

// InputFrame returns the deterministic test panorama for a projection.
// The frame is cached and shared; callers must treat it as read-only.
func InputFrame(m projection.Method) *frame.Frame {
	inputMu.Lock()
	defer inputMu.Unlock()
	if f, ok := inputCache[m]; ok {
		return f
	}
	w, h := erpW, erpH
	if m != projection.ERP {
		w, h = cubeW, cubeH
	}
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dir := projection.ToSphere(m, (float64(x)+0.5)/float64(w), (float64(y)+0.5)/float64(h))
			r, g, b := paint(dir)
			f.Set(x, y, r, g, b)
		}
	}
	inputCache[m] = f
	return f
}

// Checksum returns the FNV-1a hash of a frame's dimensions and pixels — the
// golden-vector fingerprint of a rendered FOV frame.
func Checksum(f *frame.Frame) uint64 {
	h := fnv.New64a()
	var dims [8]byte
	binary.LittleEndian.PutUint32(dims[:4], uint32(f.W))
	binary.LittleEndian.PutUint32(dims[4:], uint32(f.H))
	h.Write(dims[:]) //nolint:errcheck // fnv never fails
	h.Write(f.Pix)   //nolint:errcheck
	return h.Sum64()
}

// Metrics quantifies one case's pte-vs-pt divergence plus the golden
// fingerprints of both outputs.
type Metrics struct {
	Checksum    uint64  // pt reference FOV frame
	PTEChecksum uint64  // pte fixed-point FOV frame
	MaxAbsErr   int     // worst per-channel absolute error, [0, 255]
	MAE         float64 // mean absolute per-channel error, normalized to [0, 1]
	PSNR        float64 // dB, +Inf capped at 99
	SPSNR       float64 // solid-angle-weighted viewport PSNR, dB, capped at 99
	SSIM        float64
	DiffFrac    float64 // fraction of pixels differing in any channel
}

// Result is one executed conformance case.
type Result struct {
	Case    Case
	Metrics Metrics
}

// RunCase executes one corpus case through all implementations. It returns
// an error when a byte-identity invariant is violated (pt parallel, the
// exact-mode mapping LUT, pte parallel); budget checking against the
// fixed-point divergence metrics is the manifest's job.
func RunCase(c Case) (Result, error) {
	full := InputFrame(c.Projection)
	cfg := c.PTConfig()

	ref, err := pt.RenderChecked(cfg, full, c.Pose)
	if err != nil {
		return Result{}, fmt.Errorf("%s: pt: %w", c.Name, err)
	}
	par, err := pt.RenderParallelChecked(cfg, full, c.Pose, c.Workers)
	if err != nil {
		return Result{}, fmt.Errorf("%s: pt parallel: %w", c.Name, err)
	}
	if !ref.Equal(par) {
		return Result{}, fmt.Errorf("%s: pt.RenderParallel(workers=%d) not byte-identical to serial render", c.Name, c.Workers)
	}
	pt.Recycle(par)

	// The exact-mode mapping LUT claims byte identity with the reference for
	// every pose — make that a gated invariant, not a package-local test.
	lr, err := ptlut.NewRenderer(cfg, nil, ptlut.Options{})
	if err != nil {
		return Result{}, fmt.Errorf("%s: ptlut: %w", c.Name, err)
	}
	lout, err := lr.RenderChecked(full, c.Pose, c.Workers)
	if err != nil {
		return Result{}, fmt.Errorf("%s: ptlut render: %w", c.Name, err)
	}
	if !ref.Equal(lout) {
		return Result{}, fmt.Errorf("%s: exact-mode ptlut render (workers=%d) not byte-identical to pt reference", c.Name, c.Workers)
	}
	pt.Recycle(lout)

	eng, err := pte.New(pte.DefaultConfig(c.Projection, c.Filter, cfg.Viewport))
	if err != nil {
		return Result{}, fmt.Errorf("%s: pte: %w", c.Name, err)
	}
	pteOut := eng.Render(full, c.Pose)
	ptePar := eng.RenderParallel(full, c.Pose, c.Workers)
	if !pteOut.Equal(ptePar) {
		return Result{}, fmt.Errorf("%s: pte.RenderParallel(workers=%d) not byte-identical to pte.Render", c.Name, c.Workers)
	}

	return Result{Case: c, Metrics: measure(ref, pteOut)}, nil
}

// Measure computes the divergence metrics between a reference render and an
// approximate one — the same arithmetic the golden manifest is built from,
// exported so other approximate paths (the quantized mapping LUT) can hold
// themselves to the per-class budgets.
func Measure(ref, approx *frame.Frame) Metrics { return measure(ref, approx) }

// measure computes the divergence metrics between the float reference and
// the fixed-point output.
func measure(ref, fixed *frame.Frame) Metrics {
	m := Metrics{
		Checksum:    Checksum(ref),
		PTEChecksum: Checksum(fixed),
		MAE:         round6(frame.MAE(ref, fixed)),
		SSIM:        round6(quality.SSIM(ref, fixed)),
	}
	psnr := frame.PSNR(ref, fixed)
	if math.IsInf(psnr, 1) || psnr > 99 {
		psnr = 99
	}
	m.PSNR = round6(psnr)
	// Spherically-weighted viewport PSNR: each output pixel weighted by the
	// solid angle its image-plane cell subtends, so corner pixels — which a
	// viewer sees compressed — count for less. The corpus shares one FOV, so
	// the table follows from the frame's own geometry.
	wt := quality.ViewportWeights(projection.Viewport{
		Width: ref.W, Height: ref.H, FOVX: fovRad, FOVY: fovRad,
	})
	spsnr, err := wt.WeightedPSNR(ref, fixed)
	if err != nil { // unreachable: the table is built from ref's own dims
		spsnr = 0
	}
	if math.IsInf(spsnr, 1) || spsnr > 99 {
		spsnr = 99
	}
	m.SPSNR = round6(spsnr)
	diff := 0
	for p := 0; p < len(ref.Pix); p += 3 {
		pixDiff := false
		for k := 0; k < 3; k++ {
			d := int(ref.Pix[p+k]) - int(fixed.Pix[p+k])
			if d < 0 {
				d = -d
			}
			if d > m.MaxAbsErr {
				m.MaxAbsErr = d
			}
			if d != 0 {
				pixDiff = true
			}
		}
		if pixDiff {
			diff++
		}
	}
	m.DiffFrac = round6(float64(diff) * 3 / float64(len(ref.Pix)))
	return m
}

// round6 rounds to 6 decimals so manifest floats re-marshal byte-identically
// across regenerations.
func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }
