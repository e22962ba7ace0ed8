package pt

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
)

func randomFrame(w, h int, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	return f
}

// TestRenderParallelMatchesSerial is the determinism contract of the
// parallel engine: for every projection × filter × worker count, the banded
// parallel render is byte-identical to the serial reference raster scan.
// The yaw puts the ERP viewport across the longitude seam so the wrap path
// is exercised too. Run with -race to check the band partitioning.
func TestRenderParallelMatchesSerial(t *testing.T) {
	full := randomFrame(96, 48, 7)
	o := geom.Orientation{Yaw: math.Pi - 0.1, Pitch: 0.15}
	for _, m := range projection.Methods {
		for _, flt := range []Filter{Nearest, Bilinear} {
			cfg := Config{Projection: m, Filter: flt, Viewport: testViewport()}
			want := Render(cfg, full, o)
			for _, workers := range []int{1, 2, 8} {
				got := RenderParallel(cfg, full, o, workers)
				if !got.Equal(want) {
					t.Errorf("%v/%v: %d-worker output differs from serial", m, flt, workers)
				}
				Recycle(got)
			}
			// workers=0 resolves to the default pool and must also match.
			if got := RenderParallel(cfg, full, o, 0); !got.Equal(want) {
				t.Errorf("%v/%v: default-worker output differs from serial", m, flt)
			}
		}
	}
}

// TestERPSeamNoBorderBleed is the regression test for the longitude-wrap
// bug: a bilinear sample between the last and first ERP columns must blend
// the true neighbor from the opposite edge. Before the fix, frame sampling
// clamped at the border, so every pixel in the wrap zone repeated the black
// right edge instead of blending the white column 0.
func TestERPSeamNoBorderBleed(t *testing.T) {
	const fw, fh = 64, 32
	full := frame.New(fw, fh)
	for y := 0; y < fh; y++ {
		full.Set(0, y, 255, 255, 255) // column 0 white, everything else black
	}
	cfg := Config{
		Projection: projection.ERP,
		Filter:     Bilinear,
		Viewport: projection.Viewport{
			Width: 192, Height: 8,
			FOVX: geom.Radians(110), FOVY: geom.Radians(20),
		},
	}
	o := geom.Orientation{Yaw: math.Pi} // look straight at the ±180° seam
	out := Render(cfg, full, o)

	m := cfg.NewMapper(o, fw, fh)
	zone := 0
	for j := 0; j < cfg.Viewport.Height; j++ {
		for i := 0; i < cfg.Viewport.Width; i++ {
			u, v := m.Map(i, j)
			// Wrap zone: between the last column (x0 = fw-1) and the seam,
			// with the wrapped column 0 carrying ≥ 10% of the blend weight.
			if u <= float64(fw-1)+0.1 || u > float64(fw)-0.5 {
				continue
			}
			zone++
			if r, _, _ := out.At(i, j); r == 0 {
				t.Fatalf("pixel (%d, %d) at u=%.2f is black: seam sample clamped instead of wrapping", i, j, u)
			}
			// The old clamped sampler is still what cubemaps use; confirm it
			// would have produced the bled border here (the bug this guards).
			if rc, _, _ := full.BilinearAt(u, v); rc != 0 {
				t.Fatalf("clamped control sample at u=%.2f unexpectedly non-black", u)
			}
		}
	}
	if zone == 0 {
		t.Fatal("no output pixel landed in the seam wrap zone; regression test is vacuous")
	}
}

func TestRenderCheckedRejectsInvalidInput(t *testing.T) {
	good := Config{Projection: projection.ERP, Filter: Bilinear, Viewport: testViewport()}
	if _, err := RenderChecked(Config{}, frame.New(8, 8), geom.Orientation{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := RenderChecked(good, nil, geom.Orientation{}); err == nil {
		t.Error("nil input frame accepted")
	}
	if _, err := RenderChecked(good, &frame.Frame{}, geom.Orientation{}); err == nil {
		t.Error("empty input frame accepted")
	}
	if _, err := RenderParallelChecked(good, &frame.Frame{W: 8, H: 8, Pix: make([]byte, 8*8*3-1)}, geom.Orientation{}, 2); err == nil {
		t.Error("parallel: input frame with a short pixel buffer accepted")
	}
	if _, err := RenderParallelChecked(Config{}, frame.New(8, 8), geom.Orientation{}, 2); err == nil {
		t.Error("parallel: invalid config accepted")
	}
	if out, err := RenderChecked(good, frame.New(8, 8), geom.Orientation{}); err != nil || out == nil {
		t.Errorf("valid render failed: %v", err)
	}
}

func TestRenderParallelPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RenderParallel(Config{}, frame.New(4, 4), geom.Orientation{}, 2)
}

func TestRecycleReusesBuffers(t *testing.T) {
	cfg := Config{Projection: projection.ERP, Filter: Nearest, Viewport: testViewport()}
	full := randomFrame(64, 32, 11)
	o := geom.Orientation{Yaw: 0.3}
	want := Render(cfg, full, o)
	// Recycled buffers must never leak stale pixels into later renders.
	for i := 0; i < 4; i++ {
		got := RenderParallel(cfg, full, o, 2)
		if !got.Equal(want) {
			t.Fatalf("render %d through the pool differs from reference", i)
		}
		Recycle(got)
	}
	Recycle(nil) // must not panic
}

// TestDefaultWorkersIsGOMAXPROCS: workers == 0 follows GOMAXPROCS, and
// BandCount never asks for more bands than rows.
func TestDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("DefaultWorkers = %d at GOMAXPROCS=3", got)
	}
	if got := BandCount(100, 0); got != 3 {
		t.Errorf("BandCount(100, 0) = %d at GOMAXPROCS=3", got)
	}
	if got := BandCount(2, 0); got != 2 {
		t.Errorf("BandCount(2, 0) = %d, want 2 (one band per row at most)", got)
	}
}

// TestRecycleTwiceNoAlias pins the double-recycle guard: Recycle nils the
// frame's pixel slice, so recycling the same frame again must be a no-op
// rather than putting one buffer into the pool twice — which would hand two
// later renders the same backing array.
func TestRecycleTwiceNoAlias(t *testing.T) {
	f := newPooledFrame(8, 8)
	Recycle(f)
	if f.Pix != nil {
		t.Fatal("Recycle must nil the frame's pixel slice")
	}
	Recycle(f) // second recycle of the same frame: must be a no-op

	// Drain the pool into two frames; aliasing would make a write through
	// one visible through the other.
	a := newPooledFrame(8, 8)
	b := newPooledFrame(8, 8)
	for i := range a.Pix {
		a.Pix[i] = 0xAA
	}
	for i := range b.Pix {
		b.Pix[i] = 0x55
	}
	for i, v := range a.Pix {
		if v != 0xAA {
			t.Fatalf("double recycle aliased pooled buffers: a.Pix[%d] = %#x", i, v)
		}
	}
}

// TestMapMatchesRayToPlane holds Mapper.Map to the per-pixel definition it
// hoists — Viewport.Ray, then projection.ToPlane, scaled to pixels — bit for
// bit, for every projection, at poses on the ERP seam, at both poles and
// rolled.
func TestMapMatchesRayToPlane(t *testing.T) {
	const fw, fh = 128, 64
	vp := testViewport()
	for _, o := range []geom.Orientation{
		{Yaw: 1.1, Pitch: -0.4, Roll: 0.2},
		{Yaw: math.Pi},
		{Yaw: -math.Pi, Pitch: 0.3, Roll: -0.7},
		{Pitch: math.Pi / 2},
		{Yaw: 2, Pitch: -math.Pi / 2, Roll: 1.3},
		{Yaw: -0.6, Roll: math.Pi / 2},
	} {
		for _, pm := range projection.Methods {
			cfg := Config{Projection: pm, Filter: Bilinear, Viewport: vp}
			m := cfg.NewMapper(o, fw, fh)
			for j := 0; j < vp.Height; j++ {
				for i := 0; i < vp.Width; i++ {
					u, v := m.Map(i, j)
					nu, nv := projection.ToPlane(pm, vp.Ray(o, i, j))
					wu, wv := nu*fw-0.5, nv*fh-0.5
					if math.Float64bits(u) != math.Float64bits(wu) || math.Float64bits(v) != math.Float64bits(wv) {
						t.Fatalf("%v pose %+v pixel (%d, %d): Map (%v, %v), Ray+ToPlane (%v, %v)", pm, o, i, j, u, v, wu, wv)
					}
				}
			}
		}
	}
}
