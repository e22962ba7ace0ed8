package ptlut_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/ptlut"
	"evr/internal/scene"
	"evr/internal/telemetry"
)

// render is RenderChecked for an input frame the test knows is valid.
func render(r *ptlut.Renderer, full *frame.Frame, o geom.Orientation, workers int) *frame.Frame {
	out, err := r.RenderChecked(full, o, workers)
	if err != nil {
		panic(err)
	}
	return out
}

// testFrame builds a deterministic high-frequency test panorama: gradients
// plus diagonal stripes so a one-texel sampling error shows up as a byte
// difference rather than vanishing into flat content.
func testFrame(w, h int) *frame.Frame {
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, byte(x*255/w), byte(y*255/h), byte((3*x+5*y)%256))
		}
	}
	return f
}

func testConfig(m projection.Method, flt pt.Filter, w, h int) pt.Config {
	return pt.Config{
		Projection: m,
		Filter:     flt,
		Viewport:   projection.Viewport{Width: w, Height: h, FOVX: math.Pi / 2, FOVY: math.Pi / 2},
	}
}

var testPoses = []geom.Orientation{
	{},
	{Yaw: 0.4},
	{Yaw: math.Pi, Pitch: 0.2},           // ERP seam
	{Pitch: math.Pi/2 - 0.03},            // pole
	{Yaw: math.Pi / 4, Pitch: -0.3},      // cube edge
	{Yaw: -2.5, Pitch: 0.7, Roll: 0.35},  // rolled
	{Yaw: 1e-9, Pitch: -1e-9, Roll: 0.0}, // near-identity
}

// TestExactByteIdentity pins the tentpole invariant at unit scale: the
// exact-mode LUT renderer is byte-identical to pt.RenderParallel for every
// projection, filter, pose, and worker count (the full-corpus version lives
// in conformance_test.go).
func TestExactByteIdentity(t *testing.T) {
	for _, m := range projection.Methods {
		full := testFrame(128, 64)
		if m != projection.ERP {
			full = testFrame(120, 80)
		}
		for _, flt := range []pt.Filter{pt.Nearest, pt.Bilinear} {
			cfg := testConfig(m, flt, 48, 40)
			r, err := ptlut.NewRenderer(cfg, ptlut.NewCache(0, nil), ptlut.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for pi, pose := range testPoses {
				want := pt.RenderParallel(cfg, full, pose, 3)
				for _, workers := range []int{1, 2, 5, 64} {
					got := render(r, full, pose, workers)
					if !want.Equal(got) {
						t.Fatalf("%v/%v pose %d workers %d: LUT render differs from pt.RenderParallel", m, flt, pi, workers)
					}
					pt.Recycle(got)
				}
				pt.Recycle(want)
			}
			st := r.Stats()
			// One build per pose, the rest of the renders must hit.
			if st.Misses != int64(len(testPoses)) {
				t.Errorf("%v/%v: %d builds for %d poses", m, flt, st.Misses, len(testPoses))
			}
			if st.Hits == 0 {
				t.Errorf("%v/%v: no cache hits", m, flt)
			}
		}
	}
}

// TestExactIdentityAcrossInputSizes verifies tables are keyed on input
// dims: the same renderer serving frames of different sizes must stay
// byte-identical for each (no stale-table aliasing).
func TestExactIdentityAcrossInputSizes(t *testing.T) {
	cfg := testConfig(projection.ERP, pt.Bilinear, 32, 32)
	r, err := ptlut.NewRenderer(cfg, ptlut.NewCache(0, nil), ptlut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pose := geom.Orientation{Yaw: 0.7, Pitch: 0.1}
	for _, dims := range [][2]int{{64, 32}, {128, 64}, {64, 32}, {30, 20}} {
		full := testFrame(dims[0], dims[1])
		want := pt.Render(cfg, full, pose)
		got := render(r, full, pose, 2)
		if !want.Equal(got) {
			t.Fatalf("input %dx%d: LUT render differs", dims[0], dims[1])
		}
		pt.Recycle(got)
	}
}

// TestDegenerateDims sweeps 1-pixel-wide/tall viewports and inputs through
// the exact path: the packed-offset edge policy must match frame.At /
// frame.AtWrapX clamping even when every tap clamps.
func TestDegenerateDims(t *testing.T) {
	for _, m := range projection.Methods {
		for _, flt := range []pt.Filter{pt.Nearest, pt.Bilinear} {
			for _, vp := range [][2]int{{1, 7}, {7, 1}, {1, 1}, {3, 5}} {
				cfg := testConfig(m, flt, vp[0], vp[1])
				r, err := ptlut.NewRenderer(cfg, nil, ptlut.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, in := range [][2]int{{1, 1}, {2, 1}, {1, 3}, {5, 4}} {
					full := testFrame(in[0], in[1])
					pose := geom.Orientation{Yaw: 2.8, Pitch: -1.1}
					want := pt.Render(cfg, full, pose)
					got := render(r, full, pose, 3)
					if !want.Equal(got) {
						t.Fatalf("%v/%v vp %v in %v: differs", m, flt, vp, in)
					}
				}
			}
		}
	}
}

// TestQuantizedPoseSharing pins the quantized mode's contract: poses within
// one grid cell share a table (hit), the rendered image equals the exact
// render at the snapped pose (for float weights), and quantization error
// versus the true pose stays small on smooth content.
func TestQuantizedPoseSharing(t *testing.T) {
	cfg := testConfig(projection.ERP, pt.Bilinear, 48, 48)
	step := geom.Radians(0.5)
	r, err := ptlut.NewRenderer(cfg, ptlut.NewCache(0, nil), ptlut.Options{QuantStep: step})
	if err != nil {
		t.Fatal(err)
	}
	full := testFrame(256, 128)
	// A grid point plus sub-cell jitter, so both poses land in one cell.
	base := geom.Orientation{Yaw: 34 * step, Pitch: 11 * step}
	nearby := geom.Orientation{Yaw: base.Yaw + step/8, Pitch: base.Pitch - step/8}
	a := render(r, full, base, 2)
	b := render(r, full, nearby, 2)
	if !a.Equal(b) {
		t.Fatal("poses in one quantization cell must render identically")
	}
	st := r.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("want 1 build + 1 hit, got misses=%d hits=%d", st.Misses, st.Hits)
	}
	snapped := ptlut.Quantize(base, step)
	want := pt.Render(cfg, full, snapped)
	if !want.Equal(a) {
		t.Fatal("quantized render must equal the exact render at the snapped pose")
	}
}

// TestQuantWeightsError bounds the Q8 fixed-point blend against the float
// reference at the same pose: the weight grid is 1/256, so the per-channel
// error on any content is at most a couple of codes.
func TestQuantWeightsError(t *testing.T) {
	cfg := testConfig(projection.ERP, pt.Bilinear, 64, 64)
	r, err := ptlut.NewRenderer(cfg, nil, ptlut.Options{QuantWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	full := testFrame(256, 128)
	pose := geom.Orientation{Yaw: 1.2, Pitch: 0.4}
	want := pt.Render(cfg, full, pose)
	got := render(r, full, pose, 2)
	maxAbs := 0
	for i := range want.Pix {
		d := int(want.Pix[i]) - int(got.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > maxAbs {
			maxAbs = d
		}
	}
	if maxAbs > 2 {
		t.Fatalf("Q8 blend max abs error %d, want <= 2", maxAbs)
	}
	if mae := frame.MAE(want, got); mae > 1e-3 {
		t.Fatalf("Q8 blend MAE %g above the visually-lossless line", mae)
	}
}

func TestQuantize(t *testing.T) {
	step := geom.Radians(1)
	got := ptlut.Quantize(geom.Orientation{Yaw: geom.Radians(10.4), Pitch: geom.Radians(-0.6), Roll: 0}, step)
	want := geom.Orientation{Yaw: geom.Radians(10), Pitch: geom.Radians(-1)}
	if math.Abs(got.Yaw-want.Yaw) > 1e-12 || math.Abs(got.Pitch-want.Pitch) > 1e-12 || got.Roll != 0 {
		t.Fatalf("Quantize = %+v, want %+v", got, want)
	}
	// step 0 is the identity, bit for bit.
	o := geom.Orientation{Yaw: 1.23456789, Pitch: -0.5, Roll: 9.9}
	if ptlut.Quantize(o, 0) != o {
		t.Fatal("step 0 must be the identity")
	}
	// Quantization normalizes first: a yaw beyond π lands on the wrapped grid.
	g := ptlut.Quantize(geom.Orientation{Yaw: 2*math.Pi + 0.1}, step)
	if math.Abs(g.Yaw-geom.Radians(6)) > 1e-12 {
		t.Fatalf("wrapped yaw quantized to %v, want %v", g.Yaw, geom.Radians(6))
	}
}

// TestCacheBudgetCountsTableBytes pins what the table cache adds to the
// cache core (internal/cache, where LRU order, oversized accounting and
// singleflight are checked): the budget is counted in Table.Bytes, and a
// table too large to cache still renders correctly.
func TestCacheBudgetCountsTableBytes(t *testing.T) {
	cfg := testConfig(projection.ERP, pt.Bilinear, 32, 32)
	tbl, err := ptlut.Build(cfg, geom.Orientation{}, 64, 32, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	size := tbl.Bytes()

	c := ptlut.NewCache(3*size, nil)
	r, err := ptlut.NewRenderer(cfg, c, ptlut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := testFrame(64, 32)
	for i := 0; i < 6; i++ {
		pt.Recycle(render(r, full, geom.Orientation{Yaw: float64(i) / 10}, 1))
	}
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 3*size || st.Evictions != 3 || st.MaxBytes != 3*size {
		t.Fatalf("six tables through a three-table budget: %+v", st)
	}

	small := ptlut.NewCache(size/2, nil)
	rs, err := ptlut.NewRenderer(cfg, small, ptlut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := pt.Render(cfg, full, geom.Orientation{Yaw: 0.9})
	got := render(rs, full, geom.Orientation{Yaw: 0.9}, 1)
	if !want.Equal(got) {
		t.Fatal("oversized table must still serve correct renders")
	}
	if sst := small.Stats(); sst.Oversized != 1 || sst.Entries != 0 || sst.Bytes != 0 {
		t.Fatalf("oversized accounting: %+v", sst)
	}
	if def := ptlut.NewCache(0, nil).Stats().MaxBytes; def != ptlut.DefaultCacheBytes {
		t.Fatalf("NewCache(0) budget = %d, want the %d default", def, ptlut.DefaultCacheBytes)
	}
}

// TestBuildErrorNotCached pins that a failing build is reported to every
// waiter and retried by the next Get.
func TestBuildErrorNotCached(t *testing.T) {
	c := ptlut.NewCache(1<<20, nil)
	cfg := testConfig(projection.ERP, pt.Nearest, 8, 8)
	key := ptlut.MakeKey(cfg, geom.Orientation{}, 16, 8, false)
	calls := 0
	fail := func() (*ptlut.Table, error) { calls++; return nil, fmt.Errorf("boom") }
	if _, err := c.Get(key, fail); err == nil {
		t.Fatal("want build error")
	}
	if _, err := c.Get(key, fail); err == nil {
		t.Fatal("want build error on retry")
	}
	if calls != 2 {
		t.Fatalf("build called %d times, want 2 (errors must not be cached)", calls)
	}
}

// TestRendererValidation covers constructor and render-time input checks.
func TestRendererValidation(t *testing.T) {
	bad := pt.Config{}
	if _, err := ptlut.NewRenderer(bad, nil, ptlut.Options{}); err == nil {
		t.Fatal("invalid config must be rejected")
	}
	cfg := testConfig(projection.ERP, pt.Bilinear, 8, 8)
	for _, step := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := ptlut.NewRenderer(cfg, nil, ptlut.Options{QuantStep: step}); err == nil {
			t.Fatalf("quant step %v must be rejected", step)
		}
	}
	r, err := ptlut.NewRenderer(cfg, nil, ptlut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RenderChecked(nil, geom.Orientation{}, 1); err == nil {
		t.Fatal("nil input frame must be rejected")
	}
	if _, err := r.RenderChecked(&frame.Frame{}, geom.Orientation{}, 1); err == nil {
		t.Fatal("empty input frame must be rejected")
	}
	tbl, err := r.Table(geom.Orientation{}, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Render(frame.New(16, 16), 1); err == nil {
		t.Fatal("input frame of other dims than the table's must be rejected")
	}
	if _, err := tbl.Render(nil, 1); err == nil {
		t.Fatal("Table.Render: nil input frame must be rejected")
	}
}

// TestTraceTableSharing replays all 59 RS head traces through Quantize and
// MakeKey and pins how many distinct tables the corpus needs per pose-grid
// step — the cross-user sharing EXPERIMENTS.md reports (exact poses never
// repeat; 0.25° halves the table count, 1° leaves under a tenth). The key
// alone decides sharing, so no pixel is rendered.
func TestTraceTableSharing(t *testing.T) {
	v, _ := scene.ByName("RS")
	traces := make([]headtrace.Trace, headtrace.DatasetUsers)
	for u := range traces {
		traces[u] = headtrace.Generate(v, u)
	}
	cfg := testConfig(projection.ERP, pt.Bilinear, 1920, 1080)
	for _, c := range []struct {
		stepDeg float64
		tables  int
	}{{0, 106200}, {0.10, 91953}, {0.25, 52993}, {0.50, 23277}, {1.00, 9747}} {
		step := geom.Radians(c.stepDeg)
		distinct := make(map[ptlut.Key]struct{})
		poses := 0
		for _, tr := range traces {
			for _, s := range tr.Samples {
				distinct[ptlut.MakeKey(cfg, ptlut.Quantize(s.O, step), 3840, 1920, step > 0)] = struct{}{}
				poses++
			}
		}
		if poses != 106200 || len(distinct) != c.tables {
			t.Errorf("step %.2f°: %d poses → %d tables, want 106200 → %d", c.stepDeg, poses, len(distinct), c.tables)
		}
	}
}

// TestBuildAllocations: one Build at the gated benchmark's geometry (a
// 320×160 ERP panorama onto the 213×120, 110° viewport) allocates its
// tables and under 1 kB more, for every layout and on one or two workers —
// the column chunk and the mapped rows live on each band's stack. One P, as
// in pt.TestRenderAllocations: the band goroutines' runtime records are
// reused, not allocated while the scheduler balances its free lists.
func TestBuildAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const fullW, fullH, w, h = 320, 160, 213, 120
	measure := func(fn func()) uint64 {
		best := ^uint64(0)
		var before, after runtime.MemStats
		for n := 0; n < 5; n++ {
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	var idx []int32 // the tables' layouts, allocated alone for the baseline
	var f64 [2][]float64
	var q8 [2][]uint16
	cfg := testConfig(projection.ERP, pt.Bilinear, w, h)
	cfg.Viewport.FOVX, cfg.Viewport.FOVY = geom.Radians(110), geom.Radians(110)
	pose := geom.Orientation{Yaw: 0.7, Pitch: -0.2, Roll: 0.05}
	for _, c := range []struct {
		name   string
		filter pt.Filter
		quant  bool
		tables func()
	}{
		{"nearest", pt.Nearest, false, func() { idx = make([]int32, w*h) }},
		{"exact", pt.Bilinear, false, func() { idx, f64 = make([]int32, 4*w*h), [2][]float64{make([]float64, w*h), make([]float64, w*h)} }},
		{"quant", pt.Bilinear, true, func() { idx, q8 = make([]int32, 4*w*h), [2][]uint16{make([]uint16, w*h), make([]uint16, w*h)} }},
	} {
		cfg.Filter = c.filter
		tables := measure(c.tables)
		for _, workers := range []int{1, 2} {
			build := measure(func() {
				if _, err := ptlut.Build(cfg, pose, fullW, fullH, c.quant, workers); err != nil {
					t.Fatal(err)
				}
			})
			if build > tables+1<<10 {
				t.Errorf("%s on %d workers: Build allocated %d bytes, its tables alone are %d: more than 1 kB over", c.name, workers, build, tables)
			}
		}
	}
	_, _, _ = idx, f64, q8
}

// BenchmarkRender times the mapping-LUT hot path against the pt reference
// at 1080p: a 3840×1920 ERP gradient-plus-stripe panorama into a 1920×1080
// bilinear viewport. build is the table construction a cache miss pays,
// warm a cache-hit render (gather + blend only); the quant arm snaps to
// DefaultQuantStep with Q8 weights. The exact arm must match pt byte for
// byte.
func BenchmarkRender(b *testing.B) {
	const w, h = 3840, 1920
	full := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			full.Set(x, y, byte(x*255/w), byte(y*255/h), byte((x/3+y/5)%256))
		}
	}
	cfg := testConfig(projection.ERP, pt.Bilinear, 1920, 1080)
	cfg.Viewport.FOVY = math.Pi / 2 * 1080 / 1920
	pose := geom.Orientation{Yaw: 0.37, Pitch: -0.12, Roll: 0.05}
	ref := pt.RenderParallel(cfg, full, pose, 0)
	defer pt.Recycle(ref)

	b.Run("pt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pt.Recycle(pt.RenderParallel(cfg, full, pose, 0))
		}
	})
	for _, arm := range []struct {
		name string
		opts ptlut.Options
	}{
		{"exact", ptlut.Options{}},
		{"quant", ptlut.Options{QuantStep: ptlut.DefaultQuantStep, QuantWeights: true}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.Run("build", func(b *testing.B) {
				r, err := ptlut.NewRenderer(cfg, nil, arm.opts) // no cache: every Table call builds
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					if _, err := r.Table(pose, w, h); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("warm", func(b *testing.B) {
				r, err := ptlut.NewRenderer(cfg, ptlut.NewCache(0, nil), arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				out := render(r, full, pose, 0) // builds the table
				if arm.opts == (ptlut.Options{}) && !out.Equal(ref) {
					b.Fatal("exact LUT render differs from pt.RenderParallel")
				}
				pt.Recycle(out)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pt.Recycle(render(r, full, pose, 0))
				}
			})
		})
	}
}

// TestTelemetryWiring checks the evr_ptlut_* metrics land in a registry.
func TestTelemetryWiring(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := ptlut.NewCache(1<<30, reg)
	cfg := testConfig(projection.ERP, pt.Bilinear, 16, 16)
	r, err := ptlut.NewRenderer(cfg, c, ptlut.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := testFrame(64, 32)
	pt.Recycle(render(r, full, geom.Orientation{}, 1))
	pt.Recycle(render(r, full, geom.Orientation{}, 1))
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"evr_ptlut_hits_total 1",
		"evr_ptlut_misses_total 1",
		"evr_ptlut_bytes ",
		"evr_ptlut_build_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
