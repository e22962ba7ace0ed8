package ptlut

import (
	"fmt"
	"math"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/pt"
)

// sampleMode selects which per-pixel layout a table carries and which apply
// loop consumes it. The mode is fixed at build time so the render inner
// loops stay branch-free: one tight loop per mode, no per-pixel dispatch.
type sampleMode uint8

const (
	// modeNearest: one packed source byte-offset per output pixel.
	modeNearest sampleMode = iota
	// modeBilinearExact: four tap offsets plus float64 blend fractions —
	// the arithmetic of frame.BilinearAt reproduced term for term, so the
	// output is byte-identical to the unmemoized render.
	modeBilinearExact
	// modeBilinearQuant: four tap offsets plus 8-bit fixed-point weights,
	// sampled with integer arithmetic.
	modeBilinearQuant
)

// Table is one memoized per-pixel mapping: for every output pixel, the
// input texels to read (as precomputed byte offsets into the source Pix
// slice, with the projection's clamp/wrap edge policy already applied) and
// the blend weights to combine them with. A table is immutable after Build
// and safe for concurrent use by any number of renders.
type Table struct {
	key  Key
	w, h int
	mode sampleMode

	// modeNearest: idx[p] is the byte offset of output pixel p's source
	// texel.
	idx []int32
	// modeBilinear*: taps[4p..4p+3] are the byte offsets of the 2×2
	// neighborhood (x0y0, x1y0, x0y1, x1y1).
	taps []int32
	// modeBilinearExact: the fractional parts of the mapped coordinate,
	// full float64 precision — what frame.BilinearAt derives from (u, v).
	fx, fy []float64
	// modeBilinearQuant: weights scaled to [0, 256] (Q8 fixed point).
	wx, wy []uint16
}

// tableOverhead approximates the fixed per-table heap cost (struct, slice
// headers, cache bookkeeping) charged against the byte budget.
const tableOverhead = 160

// Bytes returns the table's memory footprint — the quantity the cache
// budget bounds.
func (t *Table) Bytes() int64 {
	return tableOverhead +
		4*int64(len(t.idx)) +
		4*int64(len(t.taps)) +
		8*int64(len(t.fx)) + 8*int64(len(t.fy)) +
		2*int64(len(t.wx)) + 2*int64(len(t.wy))
}

// Build runs the perspective-update and mapping stages once for every
// output pixel of cfg at build pose o over a fullW×fullH input and memoizes
// the result. quantWeights selects the compact fixed-point bilinear layout
// (ignored for the nearest filter). Rows are fanned out across the worker
// pool; the table content is deterministic for any worker count.
func Build(cfg pt.Config, o geom.Orientation, fullW, fullH int, quantWeights bool, workers int) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fullW <= 0 || fullH <= 0 {
		return nil, fmt.Errorf("ptlut: input dims %dx%d must be positive", fullW, fullH)
	}
	w, h := cfg.Viewport.Width, cfg.Viewport.Height
	t := &Table{
		key:  MakeKey(cfg, o, fullW, fullH, quantWeights && cfg.Filter == pt.Bilinear),
		w:    w,
		h:    h,
		mode: modeNearest,
	}
	switch {
	case cfg.Filter != pt.Bilinear:
		t.idx = make([]int32, w*h)
	case quantWeights:
		t.mode = modeBilinearQuant
		t.taps = make([]int32, 4*w*h)
		t.wx = make([]uint16, w*h)
		t.wy = make([]uint16, w*h)
	default:
		t.mode = modeBilinearExact
		t.taps = make([]int32, 4*w*h)
		t.fx = make([]float64, w*h)
		t.fy = make([]float64, w*h)
	}

	pt.RunBands(h, workers, func(j0, j1 int) { t.buildRows(cfg, o, fullW, fullH, j0, j1) })
	return t, nil
}

// buildRows fills the table entries of output rows [j0, j1). Each entry
// reproduces exactly the texel choice pt.Config.Sample would make at the
// mapped coordinate: round-to-nearest for the nearest filter, the floor 2×2
// neighborhood for bilinear, each tap resolved through the shared edge
// policy (frame.Resolve, or frame.Stencil for the 2×2 taps, the PTE's and
// the float filter's own) and packed as a byte offset into the source Pix.
func (t *Table) buildRows(cfg pt.Config, o geom.Orientation, fullW, fullH, j0, j1 int) {
	m := cfg.NewMapper(o, fullW, fullH)
	wrap := cfg.Projection.WrapsX()
	offset := func(x, y int) int32 { return int32((y*fullW + x) * 3) }
	var ch pt.Chunk
	var us, vs [pt.ColChunk]float64
	for i0 := 0; i0 < t.w; i0 += pt.ColChunk {
		n := m.Columns(&ch, i0)
		for j := j0; j < j1; j++ {
			u, v := us[:n], vs[:n]
			m.Row(&ch, j, u, v)
			p0 := j*t.w + i0
			if t.mode == modeNearest {
				for k := range u {
					t.idx[p0+k] = offset(frame.Resolve(fullW, fullH, wrap, int(math.Round(u[k])), int(math.Round(v[k]))))
				}
				continue
			}
			for k := range u {
				p := p0 + k
				x0 := int(math.Floor(u[k]))
				y0 := int(math.Floor(v[k]))
				fx := u[k] - float64(x0)
				fy := v[k] - float64(y0)
				xa, ya, xb, yb := frame.Stencil(fullW, fullH, wrap, x0, y0)
				t.taps[4*p+0] = offset(xa, ya)
				t.taps[4*p+1] = offset(xb, ya)
				t.taps[4*p+2] = offset(xa, yb)
				t.taps[4*p+3] = offset(xb, yb)
				if t.mode == modeBilinearQuant {
					t.wx[p] = uint16(math.Round(fx * 256))
					t.wy[p] = uint16(math.Round(fy * 256))
				} else {
					t.fx[p] = fx
					t.fy[p] = fy
				}
			}
		}
	}
}

// Render produces the FOV frame of one input frame through the table, rows
// banded over the shared driver (workers == 0 uses pt.DefaultWorkers). The
// input must have the dimensions the table was built for. The frame comes
// from the shared render buffer pool — return it with pt.Recycle when done.
func (t *Table) Render(full *frame.Frame, workers int) (*frame.Frame, error) {
	if err := pt.CheckInput(full); err != nil {
		return nil, err
	}
	if full.W != t.key.FullW || full.H != t.key.FullH {
		return nil, fmt.Errorf("ptlut: %dx%d input frame for a table built over %dx%d", full.W, full.H, t.key.FullW, t.key.FullH)
	}
	out := pt.NewPooledFrame(t.w, t.h)
	pt.RunBands(t.h, workers, func(j0, j1 int) { t.Apply(full, out, j0, j1) })
	return out, nil
}

// Apply renders output rows [j0, j1) of out by sampling full through the
// table. Rows are independent; disjoint bands of one output frame may apply
// concurrently. The caller guarantees full matches the table's input dims
// and out its viewport dims (the Renderer enforces both via the key).
//
// The loops below are the rewritten PT hot path: no per-pixel branches, no
// bounds-checked At calls, no coordinate math — just sequential row-batched
// writes into out.Pix fed by gathers at precomputed offsets.
func (t *Table) Apply(full *frame.Frame, out *frame.Frame, j0, j1 int) {
	src := full.Pix
	dst := out.Pix
	lo, hi := j0*t.w, j1*t.w
	switch t.mode {
	case modeNearest:
		idx := t.idx
		for p := lo; p < hi; p++ {
			s := int(idx[p])
			d := p * 3
			dst[d] = src[s]
			dst[d+1] = src[s+1]
			dst[d+2] = src[s+2]
		}
	case modeBilinearExact:
		taps, fxs, fys := t.taps, t.fx, t.fy
		for p := lo; p < hi; p++ {
			q := 4 * p
			a, b := int(taps[q]), int(taps[q+1])
			c, d := int(taps[q+2]), int(taps[q+3])
			fx, fy := fxs[p], fys[p]
			gx, gy := 1-fx, 1-fy
			o := p * 3
			// Term-for-term the arithmetic of frame.BilinearAt's lerp2,
			// which the byte-identity gate depends on.
			top := float64(src[a])*gx + float64(src[b])*fx
			bot := float64(src[c])*gx + float64(src[d])*fx
			dst[o] = frame.RoundByte(top*gy + bot*fy)
			top = float64(src[a+1])*gx + float64(src[b+1])*fx
			bot = float64(src[c+1])*gx + float64(src[d+1])*fx
			dst[o+1] = frame.RoundByte(top*gy + bot*fy)
			top = float64(src[a+2])*gx + float64(src[b+2])*fx
			bot = float64(src[c+2])*gx + float64(src[d+2])*fx
			dst[o+2] = frame.RoundByte(top*gy + bot*fy)
		}
	case modeBilinearQuant:
		taps, wxs, wys := t.taps, t.wx, t.wy
		for p := lo; p < hi; p++ {
			q := 4 * p
			a, b := int(taps[q]), int(taps[q+1])
			c, d := int(taps[q+2]), int(taps[q+3])
			wx, wy := uint32(wxs[p]), uint32(wys[p])
			gx, gy := 256-wx, 256-wy
			o := p * 3
			// Q8×Q8 blend: intermediates stay under 2^25, rounded at 2^16.
			top := uint32(src[a])*gx + uint32(src[b])*wx
			bot := uint32(src[c])*gx + uint32(src[d])*wx
			dst[o] = byte((top*gy + bot*wy + 1<<15) >> 16)
			top = uint32(src[a+1])*gx + uint32(src[b+1])*wx
			bot = uint32(src[c+1])*gx + uint32(src[d+1])*wx
			dst[o+1] = byte((top*gy + bot*wy + 1<<15) >> 16)
			top = uint32(src[a+2])*gx + uint32(src[b+2])*wx
			bot = uint32(src[c+2])*gx + uint32(src[d+2])*wx
			dst[o+2] = byte((top*gy + bot*wy + 1<<15) >> 16)
		}
	}
}
