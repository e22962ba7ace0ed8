package display

import (
	"math"

	"evr/internal/frame"
)

// The scaler as it was first written, kept as the oracle for Scaler: every
// output pixel's (u, v) derived afresh and blended by refBilinear, which is
// frame.BilinearAt as it was first written (two Resolves and the math
// package's clamp and round per channel).

func refBilinear(f *frame.Frame, u, v float64) (r, g, b byte) {
	x0 := int(math.Floor(u))
	y0 := int(math.Floor(v))
	fx := u - float64(x0)
	fy := v - float64(y0)
	xa, ya := frame.Resolve(f.W, f.H, false, x0, y0)
	xb, yb := frame.Resolve(f.W, f.H, false, x0+1, y0+1)
	p00, p10 := f.Pix[(ya*f.W+xa)*3:], f.Pix[(ya*f.W+xb)*3:]
	p01, p11 := f.Pix[(yb*f.W+xa)*3:], f.Pix[(yb*f.W+xb)*3:]
	lerp2 := func(c00, c10, c01, c11 byte) byte {
		top := float64(c00)*(1-fx) + float64(c10)*fx
		bot := float64(c01)*(1-fx) + float64(c11)*fx
		v := top*(1-fy) + bot*fy
		return byte(math.Round(math.Min(255, math.Max(0, v))))
	}
	return lerp2(p00[0], p10[0], p01[0], p11[0]),
		lerp2(p00[1], p10[1], p01[1], p11[1]),
		lerp2(p00[2], p10[2], p01[2], p11[2])
}

// refScale is display.Scale before the Scaler.
func refScale(f *frame.Frame, w, h int) *frame.Frame {
	out := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := (float64(x)+0.5)/float64(w)*float64(f.W) - 0.5
			v := (float64(y)+0.5)/float64(h)*float64(f.H) - 0.5
			r, g, b := refBilinear(f, u, v)
			out.Set(x, y, r, g, b)
		}
	}
	return out
}

// refCrop is the client's hit-path crop before the Scaler: the central
// fracX×fracY of f scaled to w×h.
func refCrop(f *frame.Frame, w, h int, fracX, fracY float64) *frame.Frame {
	out := frame.New(w, h)
	sw := float64(f.W) * fracX
	sh := float64(f.H) * fracY
	x0 := (float64(f.W) - sw) / 2
	y0 := (float64(f.H) - sh) / 2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := x0 + (float64(x)+0.5)/float64(w)*sw - 0.5
			v := y0 + (float64(y)+0.5)/float64(h)*sh - 0.5
			r, g, b := refBilinear(f, u, v)
			out.Set(x, y, r, g, b)
		}
	}
	return out
}
