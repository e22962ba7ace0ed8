package client

import (
	"math"

	"evr/internal/frame"
	"evr/internal/projection"
)

// displayCrop is the display processor's hit path (§2): it extracts the
// central fracX×fracY region of a margin-padded FOV frame and bilinearly
// scales it to the display viewport — plain pixel manipulation, no PT.
//
// The sample position of output pixel (x, y) is separable and the same for
// every hit frame of a session, so the taps and weights are mapped once per
// axis (and again only if the FOV frame dimensions change), and each frame is
// then frame.BilinearAt's blend, term for term: a source row's horizontal
// lerp is computed once and shared by every output row that reads it.
type displayCrop struct {
	vp           projection.Viewport
	fracX, fracY float64

	fovW, fovH int       // dimensions the taps were mapped for
	cols, rows []cropTap // per output column / row
	top, bot   []float64 // horizontal lerps of the two source rows in use
}

// cropTap is one axis of a bilinear sample: the two clamped source indices
// and their weights (near = 1 − far, as the blend computes it).
type cropTap struct {
	a, b      int
	near, far float64
}

// mapAxis places n output samples over the central frac of size source
// texels, at texel centres; taps clamp to the border (frame.Resolve's rule
// for a non-wrapping axis).
func mapAxis(n, size int, frac float64) []cropTap {
	taps := make([]cropTap, n)
	span := float64(size) * frac
	start := (float64(size) - span) / 2
	for i := range taps {
		u := start + (float64(i)+0.5)/float64(n)*span - 0.5
		i0 := int(math.Floor(u))
		far := u - float64(i0)
		a, _ := frame.Resolve(size, 1, false, i0, 0)
		b, _ := frame.Resolve(size, 1, false, i0+1, 0)
		taps[i] = cropTap{a: a, b: b, near: 1 - far, far: far}
	}
	return taps
}

// lerpRow writes source row y's horizontal lerp for every output column.
func (d *displayCrop) lerpRow(dst []float64, fov *frame.Frame, y int) {
	src := fov.Pix[y*fov.W*3 : (y+1)*fov.W*3]
	for x, t := range d.cols {
		pa, pb, o := src[t.a*3:t.a*3+3], src[t.b*3:t.b*3+3], dst[x*3:x*3+3]
		o[0] = float64(pa[0])*t.near + float64(pb[0])*t.far
		o[1] = float64(pa[1])*t.near + float64(pb[1])*t.far
		o[2] = float64(pa[2])*t.near + float64(pb[2])*t.far
	}
}

// apply crops and scales one FOV frame.
func (d *displayCrop) apply(fov *frame.Frame) *frame.Frame {
	if fov.W != d.fovW || fov.H != d.fovH {
		d.fovW, d.fovH = fov.W, fov.H
		d.cols = mapAxis(d.vp.Width, fov.W, d.fracX)
		d.rows = mapAxis(d.vp.Height, fov.H, d.fracY)
		d.top = make([]float64, d.vp.Width*3)
		d.bot = make([]float64, d.vp.Width*3)
	}
	out := frame.New(d.vp.Width, d.vp.Height)
	// Output rows walk down the source, so the two lerped rows roll: the
	// bottom row of one output row is usually the top row of a later one.
	topY, botY := -1, -1
	for y, t := range d.rows {
		if t.a != topY {
			if t.a == botY {
				d.top, d.bot, botY = d.bot, d.top, topY
			} else {
				d.lerpRow(d.top, fov, t.a)
			}
			topY = t.a
		}
		bot := d.top // both taps clamped onto the last row
		if t.b != topY {
			if t.b != botY {
				d.lerpRow(d.bot, fov, t.b)
				botY = t.b
			}
			bot = d.bot
		}
		o := out.Pix[y*out.W*3 : (y+1)*out.W*3]
		for i, top := range d.top {
			o[i] = roundByte(top*t.near + bot[i]*t.far)
		}
	}
	return out
}

// roundByte is byte(math.Round(math.Min(255, math.Max(0, v)))) for finite v:
// inside (0, 255) the integer part and the remainder are exact, so rounding
// half away from zero is a compare.
func roundByte(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	n := int(v)
	if v-float64(n) >= 0.5 {
		n++
	}
	return byte(n)
}
