package display

import (
	"fmt"
	"math"

	"evr/internal/frame"
)

// Scaler is the display processor's scaler: it resamples a whole source frame
// bilinearly to w×h. The tiled client's backfill upscale and the ingest-side
// backfill downscale are both this one operation.
//
// The sample position of output pixel (x, y) is separable and the same for
// every source frame of one size, so the taps and weights are mapped once per
// axis (and again only if the source dimensions change), and each frame is
// then frame.BilinearAt's blend, term for term: a source row's horizontal
// lerp is computed once and shared by every output row that reads it. Build
// one Scaler per stream of frames, not per frame; ApplyInto then writes into a
// caller-owned frame and allocates nothing. The taps are re-mapped when the
// source dimensions change, so a Scaler is not safe for concurrent use.
type Scaler struct {
	w, h int

	srcW, srcH int   // source dimensions the taps were mapped for
	cols, rows []tap // per output column / row
}

// tap is one axis of a bilinear sample: the two resolved source indices and
// the weight of the second (the first weighs 1 − far, as the blend computes
// it).
type tap struct {
	a, b int32
	far  float64
}

// NewScaler returns a scaler producing w×h frames.
func NewScaler(w, h int) (*Scaler, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("display: target %dx%d must be positive", w, h)
	}
	return &Scaler{w: w, h: h}, nil
}

// mapAxis places n output samples over size source texels, at texel centres;
// taps clamp to the border (frame.Resolve's rule for a non-wrapping axis).
func mapAxis(n, size int) []tap {
	taps := make([]tap, n)
	for i := range taps {
		u := (float64(i)+0.5)/float64(n)*float64(size) - 0.5
		i0 := int(math.Floor(u))
		a, _ := frame.Resolve(size, 1, false, i0, 0)
		b, _ := frame.Resolve(size, 1, false, i0+1, 0)
		taps[i] = tap{a: int32(a), b: int32(b), far: u - float64(i0)}
	}
	return taps
}

// strip is how many output columns Apply resamples at a time: narrow enough
// that the two lerped source rows in use are a fixed 3 kB of its stack.
const strip = 64

// lerpRow writes source row y's horizontal lerp for the output columns of
// cols.
func lerpRow(dst []float64, f *frame.Frame, y int32, cols []tap) {
	src := f.Pix[int(y)*f.W*3:][:f.W*3]
	for x, t := range cols {
		pa, pb, o := src[t.a*3:][:3], src[t.b*3:][:3], dst[x*3:][:3]
		near := 1 - t.far
		o[0] = float64(pa[0])*near + float64(pb[0])*t.far
		o[1] = float64(pa[1])*near + float64(pb[1])*t.far
		o[2] = float64(pa[2])*near + float64(pb[2])*t.far
	}
}

// Apply scales one frame into a new one. A nil, empty or
// short-buffered source is an error.
func (s *Scaler) Apply(f *frame.Frame) (*frame.Frame, error) {
	out := frame.New(s.w, s.h)
	if err := s.ApplyInto(out, f); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyInto scales f into out, which must be a w×h frame; every
// pixel of out is written. A nil, empty or short-buffered source or a
// mis-sized destination is an error.
func (s *Scaler) ApplyInto(out, f *frame.Frame) error {
	if f == nil || f.W <= 0 || f.H <= 0 {
		return fmt.Errorf("display: source frame must be non-empty")
	}
	if len(f.Pix) < f.W*f.H*3 {
		return fmt.Errorf("display: source frame holds %d bytes, %dx%d needs %d", len(f.Pix), f.W, f.H, f.W*f.H*3)
	}
	if out == nil || out.W != s.w || out.H != s.h || len(out.Pix) < s.w*s.h*3 {
		return fmt.Errorf("display: destination must be a %dx%d frame", s.w, s.h)
	}
	if f.W != s.srcW || f.H != s.srcH {
		s.srcW, s.srcH = f.W, f.H
		s.cols = mapAxis(s.w, f.W)
		s.rows = mapAxis(s.h, f.H)
	}
	var rowA, rowB [strip * 3]float64
	for x0 := 0; x0 < s.w; x0 += strip {
		cols := s.cols[x0:min(x0+strip, s.w)]
		top, bot := rowA[:len(cols)*3], rowB[:len(cols)*3]
		// Output rows walk down the source, so the two lerped rows roll: the
		// bottom row of one output row is usually the top row of a later one.
		topY, botY := int32(-1), int32(-1)
		for y, t := range s.rows {
			if t.a != topY {
				if t.a == botY {
					top, bot, botY = bot, top, topY
				} else {
					lerpRow(top, f, t.a, cols)
				}
				topY = t.a
			}
			low := top // both taps clamped onto the last row
			if t.b != topY {
				if t.b != botY {
					lerpRow(bot, f, t.b, cols)
					botY = t.b
				}
				low = bot
			}
			near := 1 - t.far
			o := out.Pix[(y*s.w+x0)*3:][:len(top)]
			for i, v := range top {
				o[i] = frame.RoundByte(v*near + low[i]*t.far)
			}
		}
	}
	return nil
}
