// Package frame provides the RGB raster type shared by every stage of the
// pipeline: the scene renderer produces frames, the codec compresses them,
// the PT implementations (GPU reference and PTE fixed-point) read full
// frames and write FOV frames, and the quality package compares them.
//
// Pixels are 24-bit RGB (8 bits per channel), stored row-major in a single
// backing slice, matching the "24-bit RGB pixel value" the paper's PT
// datapath returns per pixel (§6.1).
package frame

import (
	"fmt"
	"math"
)

// Frame is a W×H RGB24 raster. The zero value is an empty frame.
type Frame struct {
	W, H int
	Pix  []byte // len = W*H*3, row-major, R G B per pixel
}

// New allocates a zeroed (black) frame of the given dimensions.
func New(w, h int) *Frame {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("frame: negative dimensions %dx%d", w, h))
	}
	return &Frame{W: w, H: h, Pix: make([]byte, w*h*3)}
}

// Clone returns a deep copy of f.
func (f *Frame) Clone() *Frame {
	g := &Frame{W: f.W, H: f.H, Pix: make([]byte, len(f.Pix))}
	copy(g.Pix, f.Pix)
	return g
}

// Bytes returns the raw pixel payload size in bytes.
func (f *Frame) Bytes() int { return len(f.Pix) }

// In reports whether (x, y) lies inside the frame.
func (f *Frame) In(x, y int) bool { return x >= 0 && x < f.W && y >= 0 && y < f.H }

// Resolve is the one edge policy every sampler in the repo shares — the
// float filters below, the PTE address generator and the mapping-LUT tap
// packer (all three through Stencil, its 2×2 form).
// It maps integer texel coordinates onto a w×h raster: y clamps to the
// border; x wraps modulo the width when wrapX is set and clamps otherwise.
// Wrapping is the policy of 360° equirectangular frames, whose left and
// right edges meet at the ±180° longitude seam — clamping there would blend
// a seam-crossing sample with the wrong side of the panorama; the cubemap
// layouts clamp.
func Resolve(w, h int, wrapX bool, x, y int) (int, int) {
	if !wrapX {
		x = min(max(x, 0), w-1)
	} else if x %= w; x < 0 {
		x += w
	}
	return x, min(max(y, 0), h-1)
}

// Stencil resolves the 2×2 neighbourhood whose top-left texel is (x0, y0)
// under Resolve's policy, for the float blend below and the PTE's filtering
// stage alike. Its four taps are the cross product of two resolved columns
// (xa, xb) and two resolved rows (ya, yb), because the policy treats x and
// y independently. A row clamp is two compares; a column pair inside the
// raster is its own resolution, so only border columns pay for the wrap's
// division. It is small enough to inline into a per-pixel loop.
func Stencil(w, h int, wrapX bool, x0, y0 int) (xa, ya, xb, yb int) {
	xa, xb = x0, x0+1
	if uint(x0) >= uint(w-1) { // x0 < 0 or xb ≥ w
		if wrapX {
			xa, xb = (xa%w+w)%w, (xb%w+w)%w
		} else {
			xa, xb = min(max(xa, 0), w-1), min(max(xb, 0), w-1)
		}
	}
	return xa, min(max(y0, 0), h-1), xb, min(max(y0+1, 0), h-1)
}

// At returns the pixel at (x, y). Out-of-range coordinates are clamped to
// the border, the same edge policy as the PTE's filtering stage.
func (f *Frame) At(x, y int) (r, g, b byte) {
	x, y = Resolve(f.W, f.H, false, x, y)
	i := (y*f.W + x) * 3
	return f.Pix[i], f.Pix[i+1], f.Pix[i+2]
}

// Set writes the pixel at (x, y). Out-of-range coordinates are ignored.
func (f *Frame) Set(x, y int, r, g, b byte) {
	if !f.In(x, y) {
		return
	}
	i := (y*f.W + x) * 3
	f.Pix[i], f.Pix[i+1], f.Pix[i+2] = r, g, b
}

// AtWrapX returns the pixel at (x, y) with horizontal wrap-around: x is
// taken modulo W while y clamps at the border (see Resolve).
func (f *Frame) AtWrapX(x, y int) (r, g, b byte) {
	x, y = Resolve(f.W, f.H, true, x, y)
	i := (y*f.W + x) * 3
	return f.Pix[i], f.Pix[i+1], f.Pix[i+2]
}

// Luma returns the integer BT.601 luma of the pixel at (x, y), in [0, 255].
func (f *Frame) Luma(x, y int) int {
	r, g, b := f.At(x, y)
	return (299*int(r) + 587*int(g) + 114*int(b)) / 1000
}

// BilinearAt samples the frame at fractional coordinates (u, v) with
// bilinear interpolation, the reference (float) version of the PTE's
// bilinear filtering function.
func (f *Frame) BilinearAt(u, v float64) (r, g, b byte) { return f.bilinear(u, v, false) }

// BilinearAtWrapX samples the frame at fractional coordinates (u, v) with
// bilinear interpolation and horizontal wrap-around (see AtWrapX): samples
// straddling the longitude seam of an equirectangular frame blend the true
// neighbor column from the opposite edge instead of repeating the border.
func (f *Frame) BilinearAtWrapX(u, v float64) (r, g, b byte) { return f.bilinear(u, v, true) }

// bilinear is the one float blend, over the taps Stencil resolves.
func (f *Frame) bilinear(u, v float64, wrapX bool) (r, g, b byte) {
	x0 := int(math.Floor(u))
	y0 := int(math.Floor(v))
	fx := u - float64(x0)
	fy := v - float64(y0)
	xa, ya, xb, yb := Stencil(f.W, f.H, wrapX, x0, y0)
	p00, p10 := f.Pix[(ya*f.W+xa)*3:][:3], f.Pix[(ya*f.W+xb)*3:][:3]
	p01, p11 := f.Pix[(yb*f.W+xa)*3:][:3], f.Pix[(yb*f.W+xb)*3:][:3]
	gx, gy := 1-fx, 1-fy
	return RoundByte((float64(p00[0])*gx+float64(p10[0])*fx)*gy + (float64(p01[0])*gx+float64(p11[0])*fx)*fy),
		RoundByte((float64(p00[1])*gx+float64(p10[1])*fx)*gy + (float64(p01[1])*gx+float64(p11[1])*fx)*fy),
		RoundByte((float64(p00[2])*gx+float64(p10[2])*fx)*gy + (float64(p01[2])*gx+float64(p11[2])*fx)*fy)
}

// RoundByte is the blend's output conversion, shared by every float sampler
// (bilinear above, the mapping-LUT apply loop, the display scaler): clamp to
// [0, 255], round half away from zero, narrow to a byte —
// byte(math.Round(math.Min(255, math.Max(0, v)))) for every finite v. Inside
// (0, 255) the integer part n and the remainder v−n are exact, so doubling
// the remainder and truncating adds the rounding carry without a branch on
// the fraction, the one branch here a predictor cannot learn.
func RoundByte(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	n := int(v)
	return byte(n + int((v-float64(n))*2))
}

// Equal reports whether two frames have identical dimensions and pixels.
func (f *Frame) Equal(g *Frame) bool {
	if f.W != g.W || f.H != g.H {
		return false
	}
	for i := range f.Pix {
		if f.Pix[i] != g.Pix[i] {
			return false
		}
	}
	return true
}

// MAE returns the mean absolute per-channel error between two equally-sized
// frames, normalized to [0, 1]. This is the "average pixel error" metric of
// Fig. 11; the paper's visually-indistinguishable threshold is 1e-3.
func MAE(a, b *Frame) float64 {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("frame: MAE dimension mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	if len(a.Pix) == 0 {
		return 0
	}
	var sum float64
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / float64(len(a.Pix)) / 255
}

// PSNR returns the peak signal-to-noise ratio in dB between two
// equally-sized frames. Identical frames return +Inf.
func PSNR(a, b *Frame) float64 {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("frame: PSNR dimension mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	if len(a.Pix) == 0 {
		return math.Inf(1)
	}
	var mse float64
	for i := range a.Pix {
		d := float64(int(a.Pix[i]) - int(b.Pix[i]))
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}
