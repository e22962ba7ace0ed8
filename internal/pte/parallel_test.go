package pte

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

func noisyFrame(w, h int, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	return f
}

// TestRenderParallelMatchesRender checks the multi-PTU dispatch: banded
// parallel rendering must produce the exact frame of the serial scan for
// every projection and worker count, since the datapath is pure per pixel.
func TestRenderParallelMatchesRender(t *testing.T) {
	full := noisyFrame(96, 48, 3)
	o := geom.Orientation{Yaw: math.Pi - 0.2, Pitch: 0.1}
	vp := projection.Viewport{Width: 40, Height: 40, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	for _, m := range projection.Methods {
		serial, err := New(DefaultConfig(m, pt.Bilinear, vp))
		if err != nil {
			t.Fatal(err)
		}
		want := serial.Render(full, o)
		for _, workers := range []int{1, 2, 4} {
			e, err := New(DefaultConfig(m, pt.Bilinear, vp))
			if err != nil {
				t.Fatal(err)
			}
			got := e.RenderParallel(full, o, workers)
			if !got.Equal(want) {
				t.Errorf("%v: %d-worker PTE output differs from serial", m, workers)
			}
			s := e.Stats()
			if s.Frames != 1 || s.OutputPixels != int64(vp.Pixels()) {
				t.Errorf("%v: stats = %+v", m, s)
			}
			if s.PMEMLineRefills <= 0 || s.DRAMReadBytes != s.PMEMLineRefills*int64(full.W)*3 {
				t.Errorf("%v: refill accounting inconsistent: %+v", m, s)
			}
		}
	}
}

// TestERPSeamMatchesReference renders straight at the ±180° seam and checks
// the fixed-point engine stays within the paper's error envelope of the
// float reference there. Before the longitude wrap fix, tiny fixed-point
// errors in u flipped seam samples to the far border and produced gross
// pixel errors at this orientation.
func TestERPSeamMatchesReference(t *testing.T) {
	full := noisyFrame(128, 64, 9)
	vp := projection.Viewport{Width: 48, Height: 48, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	cfg := DefaultConfig(projection.ERP, pt.Bilinear, vp)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := geom.Orientation{Yaw: math.Pi}
	ref := pt.Render(pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: vp}, full, o)
	if mae := frame.MAE(e.Render(full, o), ref); mae > 2e-2 {
		t.Errorf("seam MAE = %v, want ≤ 2e-2", mae)
	}
}

// TestRenderParallelCheckedRejectsBadInput: a nil or empty panorama is an
// error from the checked entry — the same one pt and ptlut report — and
// leaves the engine's counters untouched; the unchecked entries panic with
// that error instead of dereferencing nil.
func TestRenderParallelCheckedRejectsBadInput(t *testing.T) {
	vp := projection.Viewport{Width: 8, Height: 8, FOVX: geom.Radians(90), FOVY: geom.Radians(90)}
	e, err := New(DefaultConfig(projection.ERP, pt.Bilinear, vp))
	if err != nil {
		t.Fatal(err)
	}
	for name, full := range map[string]*frame.Frame{"nil": nil, "empty": {}, "zero-height": {W: 4}} {
		if _, err := e.RenderParallelChecked(full, geom.Orientation{}, 2); err == nil {
			t.Errorf("%s input frame accepted", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Render(%s) did not panic", name)
				}
			}()
			e.Render(full, geom.Orientation{})
		}()
	}
	if s := e.Stats(); s != (Stats{}) {
		t.Errorf("rejected renders were charged: %+v", s)
	}
	if out, err := e.RenderParallelChecked(noisyFrame(16, 8, 1), geom.Orientation{}, 0); err != nil || out == nil {
		t.Errorf("valid render failed: %v", err)
	}
}

// TestRenderIsRenderParallelOfOne: the serial entry is the one-worker
// banded render — same pixels, same Stats.
func TestRenderIsRenderParallelOfOne(t *testing.T) {
	full := noisyFrame(90, 44, 5)
	o := geom.Orientation{Yaw: -math.Pi + 0.05, Pitch: 0.6, Roll: 0.2}
	vp := projection.Viewport{Width: 37, Height: 29, FOVX: geom.Radians(100), FOVY: geom.Radians(100)}
	for _, m := range projection.Methods {
		a, _ := New(DefaultConfig(m, pt.Bilinear, vp))
		b, _ := New(DefaultConfig(m, pt.Bilinear, vp))
		if !a.Render(full, o).Equal(b.RenderParallel(full, o, 1)) {
			t.Errorf("%v: Render and RenderParallel(1) pixels differ", m)
		}
		if a.Stats() != b.Stats() {
			t.Errorf("%v: Render stats %+v != RenderParallel(1) stats %+v", m, a.Stats(), b.Stats())
		}
	}
}

// benchEngine is the gated benchmark's PTE geometry: a 320×160 ERP panorama
// rendered bilinearly into the 213×120, 110° viewport.
func benchEngine(tb testing.TB) (*Engine, *frame.Frame, geom.Orientation) {
	vp := projection.Viewport{Width: 213, Height: 120, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	e, err := New(DefaultConfig(projection.ERP, pt.Bilinear, vp))
	if err != nil {
		tb.Fatal(err)
	}
	return e, noisyFrame(320, 160, 7), geom.Orientation{Yaw: 0.7, Pitch: -0.3, Roll: 0.05}
}

// BenchmarkPixel reports the host cost of one output pixel through the whole
// datapath (ns/op is per pixel).
func BenchmarkPixel(b *testing.B) {
	e, full, o := benchEngine(b)
	px := e.cfg.Viewport.Pixels()
	b.ResetTimer()
	for n := 0; n < b.N; n += px {
		if _, err := e.RenderParallelChecked(full, o, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRenderAllocations: a one-band render allocates its output frame and a
// handful of small bookkeeping objects (the P-MEM links, the band closure) —
// nothing that grows with the pixel count beyond the frame itself.
func TestRenderAllocations(t *testing.T) {
	e, full, o := benchEngine(t)
	var before, after runtime.MemStats
	const runs = 5
	objects := testing.AllocsPerRun(runs, func() {
		if _, err := e.RenderParallelChecked(full, o, 1); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		e.RenderParallelChecked(full, o, 1) //nolint:errcheck // checked above
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	frameBytes := uint64(e.cfg.Viewport.Pixels() * 3)
	if objects > 12 || perRun > frameBytes+8<<10 {
		t.Errorf("one render allocates %v objects, %d B; want ≤ 12 objects, ≤ frame (%d B) + 8 kB", objects, perRun, frameBytes)
	}
}
