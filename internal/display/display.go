// Package display models the Display Processor IP of the SoC (Fig. 2, §2):
// the block that performs "necessary pixel manipulations (e.g., color-space
// conversion, rotation)" and scans frames out to the panel. In conventional
// planar playback the GPU is bypassed and this block is the whole
// post-decode pipeline; under SAS, FOV-hit frames take exactly that path.
//
// The operations are real pixel transforms (integer BT.601 color
// conversion, bilinear scaling, and the hit path's rotation warp), so the
// player can assemble an actual scanout path and tests can verify it end to
// end.
package display

import "evr/internal/frame"

// divRound divides with round-half-away-from-zero, correct for negatives.
func divRound(num, den int) int {
	if num >= 0 {
		return (num + den/2) / den
	}
	return -((-num + den/2) / den)
}

// RGBToYCbCr converts an 8-bit RGB triple to full-range BT.601 YCbCr using
// integer arithmetic, as display/codec hardware does.
func RGBToYCbCr(r, g, b byte) (y, cb, cr byte) {
	ri, gi, bi := int(r), int(g), int(b)
	yy := divRound(299*ri+587*gi+114*bi, 1000)
	cbb := 128 + divRound(-168736*ri-331264*gi+500000*bi, 1000000)
	crr := 128 + divRound(500000*ri-418688*gi-81312*bi, 1000000)
	return clamp8(yy), clamp8(cbb), clamp8(crr)
}

// YCbCrToRGB inverts RGBToYCbCr (within integer rounding).
func YCbCrToRGB(y, cb, cr byte) (r, g, b byte) {
	yi := int(y)
	cbi := int(cb) - 128
	cri := int(cr) - 128
	rr := yi + divRound(1402*cri, 1000)
	gg := yi - divRound(344136*cbi+714136*cri, 1000000)
	bb := yi + divRound(1772*cbi, 1000)
	return clamp8(rr), clamp8(gg), clamp8(bb)
}

func clamp8(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// ToYCbCr converts a whole frame in place-order into a new frame whose
// channels hold (Y, Cb, Cr).
func ToYCbCr(f *frame.Frame) *frame.Frame {
	out := frame.New(f.W, f.H)
	for i := 0; i < len(f.Pix); i += 3 {
		y, cb, cr := RGBToYCbCr(f.Pix[i], f.Pix[i+1], f.Pix[i+2])
		out.Pix[i], out.Pix[i+1], out.Pix[i+2] = y, cb, cr
	}
	return out
}

// ToRGB converts a (Y, Cb, Cr) frame back to RGB.
func ToRGB(f *frame.Frame) *frame.Frame {
	out := frame.New(f.W, f.H)
	ToRGBInto(out, f)
	return out
}

// ToRGBInto writes the RGB conversion of the (Y, Cb, Cr) frame src into dst,
// which must hold at least as many pixels.
func ToRGBInto(dst, src *frame.Frame) {
	out := dst.Pix[:len(src.Pix)]
	for i := 0; i < len(src.Pix); i += 3 {
		out[i], out[i+1], out[i+2] = YCbCrToRGB(src.Pix[i], src.Pix[i+1], src.Pix[i+2])
	}
}
