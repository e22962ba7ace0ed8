package delivery

import (
	"math/rand"
	"runtime"
	"testing"

	"evr/internal/conformance"
	"evr/internal/frame"
	"evr/internal/tiling"
)

func flatFrame(w, h int, r, g, b byte) *frame.Frame {
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, r, g, b)
		}
	}
	return f
}

func TestAssembleBackfillAndOverwrite(t *testing.T) {
	g := tiling.Grid{Cols: 2, Rows: 2}
	const w, h = 32, 16
	low := []*frame.Frame{flatFrame(w/2, h/2, 10, 10, 10)}
	tiles := map[int][]*frame.Frame{
		3: {flatFrame(w/2, h/2, 200, 0, 0)}, // bottom-right tile
	}
	out, err := Assemble(g, w, h, low, tiles)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if len(out) != 1 || out[0].W != w || out[0].H != h {
		t.Fatalf("got %d frames, first %dx%d", len(out), out[0].W, out[0].H)
	}
	// Top-left pixel comes from the upscaled backfill.
	if r, _, _ := out[0].At(0, 0); r != 10 {
		t.Errorf("backfill pixel r = %d, want 10", r)
	}
	// Bottom-right region comes from the fetched tile.
	if r, _, _ := out[0].At(w-1, h-1); r != 200 {
		t.Errorf("tile pixel r = %d, want 200", r)
	}
	// Tile boundary: just left of the bottom-right tile is still backfill.
	if r, _, _ := out[0].At(w/2-1, h-1); r != 10 {
		t.Errorf("adjacent pixel r = %d, want 10", r)
	}
}

func TestAssembleMissingTilesDegrade(t *testing.T) {
	g := tiling.Grid{Cols: 2, Rows: 1}
	low := []*frame.Frame{flatFrame(16, 8, 7, 7, 7)}
	out, err := Assemble(g, 32, 16, low, nil) // no tiles at all
	if err != nil {
		t.Fatalf("assemble with no tiles: %v", err)
	}
	if r, _, _ := out[0].At(31, 15); r != 7 {
		t.Errorf("pixel r = %d, want backfill 7", r)
	}
}

func TestAssembleRejects(t *testing.T) {
	g := tiling.Grid{Cols: 2, Rows: 2}
	low := []*frame.Frame{flatFrame(16, 8, 0, 0, 0)}
	if _, err := Assemble(g, 30, 16, low, nil); err == nil {
		t.Error("invalid grid accepted")
	}
	if _, err := Assemble(g, 32, 16, nil, nil); err == nil {
		t.Error("missing backfill accepted")
	}
	if _, err := Assemble(g, 32, 16, low, map[int][]*frame.Frame{9: nil}); err == nil {
		t.Error("out-of-grid tile accepted")
	}
	bad := map[int][]*frame.Frame{0: {flatFrame(4, 4, 0, 0, 0)}}
	if _, err := Assemble(g, 32, 16, low, bad); err == nil {
		t.Error("wrong tile dims accepted")
	}
}

// benchSegment is one tiled_view segment of the gated benchmark: n backfill
// frames at 80×40 under a 320×160 panorama on the 4×2 grid, 4 of the 8 tiles
// fetched, all pixels random.
func benchSegment(n int) (g tiling.Grid, w, h int, low []*frame.Frame, tiles map[int][]*frame.Frame) {
	rng := rand.New(rand.NewSource(19))
	random := func(w, h int) *frame.Frame {
		f := frame.New(w, h)
		rng.Read(f.Pix)
		return f
	}
	g, w, h = tiling.Grid{Cols: 4, Rows: 2}, 320, 160
	tiles = map[int][]*frame.Frame{}
	for i := 0; i < n; i++ {
		low = append(low, random(w/4, h/4))
		for _, t := range []int{1, 2, 5, 6} {
			tiles[t] = append(tiles[t], random(w/g.Cols, h/g.Rows))
		}
	}
	return g, w, h, low, tiles
}

// TestAssemblePinned holds the assembled panoramas to the checksums the
// per-pixel upscale and blit of PR 18 produced for the same segment.
func TestAssemblePinned(t *testing.T) {
	g, w, h, low, tiles := benchSegment(3)
	out, err := Assemble(g, w, h, low, tiles)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{0xbf0f668d15f0e95b, 0x46da746c3709931, 0xdda8be77a0158ab1} {
		if sum := conformance.Checksum(out[i]); sum != want {
			t.Errorf("frame %d: checksum %#x, PR 18 produced %#x", i, sum, want)
		}
	}
}

// TestAssembleRejectsMixedBackfill: a backfill stream has one resolution; a
// frame of another size is an error, as is one with a short pixel buffer.
func TestAssembleRejectsMixedBackfill(t *testing.T) {
	g, w, h, low, tiles := benchSegment(2)
	low[1] = frame.New(40, 20)
	if _, err := Assemble(g, w, h, low, tiles); err == nil {
		t.Error("backfill frame of another size accepted")
	}
	low[1] = &frame.Frame{W: 80, H: 40, Pix: make([]byte, 10)}
	if _, err := Assemble(g, w, h, low, tiles); err == nil {
		t.Error("short-buffered backfill frame accepted")
	}
}

// TestAssembleAllocations: the scaler's taps are mapped once per call and its
// scratch rows live on the stack, so a segment allocates its canvases plus
// under 16 kB, not a per-frame surcharge.
func TestAssembleAllocations(t *testing.T) {
	const frames = 30
	g, w, h, low, tiles := benchSegment(frames)
	perCall := allocBytes(func() {
		if _, err := Assemble(g, w, h, low, tiles); err != nil {
			t.Fatal(err)
		}
	})
	canvases := allocBytes(func() {
		for i := 0; i < frames; i++ {
			frame.New(w, h)
		}
	})
	if perCall > canvases+16<<10 {
		t.Errorf("Assemble allocated %d bytes for %d frames, canvases alone are %d: more than 16 kB over", perCall, frames, canvases)
	}
}

// TestAssemblerFrameMatchesAssemble: one Assembler filling one reused canvas
// frame by frame — over a canvas left dirty by the frame before — produces
// every frame Assemble does, including a tile stream that runs out early,
// and allocates nothing per frame.
func TestAssemblerFrameMatchesAssemble(t *testing.T) {
	g, w, h, low, tiles := benchSegment(4)
	tiles[2] = tiles[2][:2]
	want, err := Assemble(g, w, h, low, tiles)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssembler(g, w, h)
	if err != nil {
		t.Fatal(err)
	}
	canvas := frame.New(w, h)
	perTile := make([]*frame.Frame, g.Tiles())
	for i := range low {
		clear(perTile)
		for tile, tf := range tiles {
			if i < len(tf) {
				perTile[tile] = tf[i]
			}
		}
		if err := a.Frame(canvas, low[i], perTile); err != nil {
			t.Fatal(err)
		}
		if !canvas.Equal(want[i]) {
			t.Errorf("frame %d differs from Assemble's", i)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := a.Frame(canvas, low[0], perTile); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Assembler.Frame allocates %.0f times per frame, want 0", allocs)
	}
}

// TestAssemblerFrameRejects: a mis-sized canvas, a missing backfill frame and
// more tile frames than the grid has are errors, not panics.
func TestAssemblerFrameRejects(t *testing.T) {
	g, w, h, low, _ := benchSegment(1)
	a, err := NewAssembler(g, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Frame(frame.New(w, h/2), low[0], nil); err == nil {
		t.Error("half-height canvas accepted")
	}
	if err := a.Frame(frame.New(w, h), nil, nil); err == nil {
		t.Error("nil backfill frame accepted")
	}
	if err := a.Frame(frame.New(w, h), low[0], make([]*frame.Frame, g.Tiles()+1)); err == nil {
		t.Error("tile frames beyond the grid accepted")
	}
	if _, err := NewAssembler(g, w+1, h); err == nil {
		t.Error("panorama the grid does not divide accepted")
	}
}

// allocBytes is the heap allocated by one run of fn, the minimum of three.
func allocBytes(fn func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// BenchmarkAssemble is one tiled_view segment: 30 frames, 4 of 8 tiles.
func BenchmarkAssemble(b *testing.B) {
	g, w, h, low, tiles := benchSegment(30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(g, w, h, low, tiles); err != nil {
			b.Fatal(err)
		}
	}
}
