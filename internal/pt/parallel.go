package pt

import (
	"runtime"
	"sync"

	"evr/internal/frame"
	"evr/internal/geom"
)

// Every renderer in the repo — the float reference here, the mapping-LUT
// build and apply loops (package ptlut), the fixed-point PTE (package pte) —
// splits its output viewport into contiguous row bands through RunBands
// below. Every pixel is a pure function of (configuration, orientation,
// input frame), so the banded schedule is byte-identical to the serial
// raster scan — parallelism (GOMAXPROCS, or an explicit worker count)
// changes wall-clock time, never output. This is the software analogue of
// the paper's multi-PTU dispatch (§6.2): PTUs share the per-frame
// configuration registers and own disjoint output regions.

// DefaultWorkers returns the worker count used for workers == 0:
// runtime.GOMAXPROCS(0), so GOMAXPROCS=N sizes every render pool.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// pixPool recycles output pixel buffers between renders. A 1080p RGB24
// frame is ~6 MB; at 60 FPS the allocator would otherwise churn through
// ~360 MB/s of short-lived buffers on the playback hot path.
var pixPool sync.Pool

// newPooledFrame returns a w×h frame backed by a recycled pixel buffer when
// one of sufficient capacity is available. The render writes every pixel,
// so stale contents never leak into the output.
func newPooledFrame(w, h int) *frame.Frame {
	n := w * h * 3
	if buf, ok := pixPool.Get().(*[]byte); ok && cap(*buf) >= n {
		return &frame.Frame{W: w, H: h, Pix: (*buf)[:n]}
	}
	return frame.New(w, h)
}

// NewPooledFrame returns a w×h frame backed by the shared render buffer
// pool, for render paths outside this package (the mapping-LUT renderer)
// that produce frames callers hand back via Recycle. The frame's pixels are
// unspecified — the caller must write every one.
func NewPooledFrame(w, h int) *frame.Frame { return newPooledFrame(w, h) }

// Recycle returns a frame's pixel buffer to the render pool. The caller
// must not touch f afterwards. Recycling is optional — frames that are
// kept alive simply stay with the garbage collector.
func Recycle(f *frame.Frame) {
	if f == nil || cap(f.Pix) == 0 {
		return
	}
	buf := f.Pix[:0]
	f.Pix = nil
	pixPool.Put(&buf)
}

// RenderParallel is Render distributed over a worker pool: the output
// viewport is split into contiguous row bands rendered concurrently.
// workers == 0 uses DefaultWorkers (GOMAXPROCS); the output is
// byte-identical to the serial Render for every worker count.
// It panics on an invalid configuration; use RenderParallelChecked to get
// the error instead.
func RenderParallel(c Config, full *frame.Frame, o geom.Orientation, workers int) *frame.Frame {
	out, err := RenderParallelChecked(c, full, o, workers)
	if err != nil {
		panic(err)
	}
	return out
}

// RenderParallelChecked is RenderParallel with up-front validation.
func RenderParallelChecked(c Config, full *frame.Frame, o geom.Orientation, workers int) (*frame.Frame, error) {
	if err := c.check(full); err != nil {
		return nil, err
	}
	out := newPooledFrame(c.Viewport.Width, c.Viewport.Height)
	RunBands(out.H, workers, func(j0, j1 int) { c.renderRows(full, o, out, j0, j1) })
	return out, nil
}

// BandCount resolves a worker request against a row count, the way RunBands
// will: workers <= 0 means DefaultWorkers, and there are never more bands
// than rows.
func BandCount(rows, workers int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return min(workers, rows)
}

// RunBands is the one row-band driver: it splits rows [0, rows) into
// BandCount(rows, workers) near-equal contiguous bands and runs band(j0, j1)
// once per band, concurrently when there is more than one. band must write
// only state owned by its rows. A single band runs inline on the caller's
// goroutine.
func RunBands(rows, workers int, band func(j0, j1 int)) {
	n := BandCount(rows, workers)
	if n <= 1 {
		band(0, rows)
		return
	}
	var wg sync.WaitGroup
	for b := 0; b < n; b++ {
		j0, j1 := b*rows/n, (b+1)*rows/n
		wg.Add(1)
		go func() {
			defer wg.Done()
			band(j0, j1)
		}()
	}
	wg.Wait()
}
