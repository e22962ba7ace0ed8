package pt

import (
	"math"
	"runtime"
	"testing"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
)

// benchRender is the float render at the gated benchmark's geometry: a
// 320×160 ERP panorama onto the 213×120, 110° viewport, bilinear.
func benchRender() (Config, *frame.Frame, geom.Orientation) {
	cfg := Config{Projection: projection.ERP, Filter: Bilinear, Viewport: projection.Viewport{
		Width: 213, Height: 120, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}}
	return cfg, randomFrame(320, 160, 19), geom.Orientation{Yaw: 0.7, Pitch: -0.2, Roll: 0.05}
}

// TestRenderRowsMatchesMapSample holds the row kernel to the per-pixel
// oracle — Mapper.Map then Config.Sample, pixel by pixel — for every
// projection and filter, at poses on the ERP seam, at both poles and rolled,
// over a viewport wider than one column chunk and split into uneven bands.
func TestRenderRowsMatchesMapSample(t *testing.T) {
	full := randomFrame(96, 48, 19)
	vp := projection.Viewport{Width: ColChunk + 37, Height: 23, FOVX: geom.Radians(100), FOVY: geom.Radians(80)}
	for _, o := range []geom.Orientation{
		{},
		{Yaw: math.Pi - 0.01, Pitch: 0.1},
		{Yaw: -math.Pi, Pitch: -0.3, Roll: 0.4},
		{Pitch: math.Pi / 2},
		{Yaw: 1, Pitch: -math.Pi / 2, Roll: -1.2},
		{Yaw: 2.5, Pitch: 0.7, Roll: math.Pi / 2},
	} {
		for _, m := range projection.Methods {
			for _, flt := range []Filter{Nearest, Bilinear} {
				cfg := Config{Projection: m, Filter: flt, Viewport: vp}
				got := frame.New(vp.Width, vp.Height)
				for _, band := range [][2]int{{0, 1}, {1, 14}, {14, vp.Height}} {
					cfg.renderRows(full, o, got, band[0], band[1])
				}
				mp := cfg.NewMapper(o, full.W, full.H)
				for j := 0; j < vp.Height; j++ {
					for i := 0; i < vp.Width; i++ {
						u, v := mp.Map(i, j)
						r, g, b := cfg.Sample(full, u, v)
						if gr, gg, gb := got.At(i, j); gr != r || gg != g || gb != b {
							t.Fatalf("%v/%v pose %+v pixel (%d, %d): kernel %d,%d,%d, Map+Sample %d,%d,%d",
								m, flt, o, i, j, gr, gg, gb, r, g, b)
						}
					}
				}
			}
		}
	}
}

// TestRenderAllocations: a render allocates its viewport and under 1 kB more
// — the column chunk and the passes' rows live on each band's stack, not the
// heap — serially and split over two workers. One P: the band goroutines'
// runtime records are then reused from the first run on, not allocated
// while the scheduler balances its free lists across Ps.
func TestRenderAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg, full, o := benchRender()
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
	viewport := measure(func() { frame.New(cfg.Viewport.Width, cfg.Viewport.Height) })
	for _, r := range []struct {
		name   string
		render func() (*frame.Frame, error)
	}{
		{"RenderChecked", func() (*frame.Frame, error) { return RenderChecked(cfg, full, o) }},
		{"RenderParallelChecked/2", func() (*frame.Frame, error) {
			for pixPool.Get() != nil { // drained: the output frame is paid for
			}
			return RenderParallelChecked(cfg, full, o, 2)
		}},
	} {
		render := measure(func() {
			if _, err := r.render(); err != nil {
				t.Fatal(err)
			}
		})
		if render > viewport+1<<10 {
			t.Errorf("%s allocated %d bytes, the viewport alone is %d: more than 1 kB over", r.name, render, viewport)
		}
	}
}

// BenchmarkRenderRows is one live_orig / tiled_view frame of the gated
// benchmark on one worker.
func BenchmarkRenderRows(b *testing.B) {
	cfg, full, o := benchRender()
	out := frame.New(cfg.Viewport.Width, cfg.Viewport.Height)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.renderRows(full, o, out, 0, out.H)
	}
}
