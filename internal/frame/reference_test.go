package frame

import (
	"math"
	"math/rand"
	"testing"
)

// refBilinear is the float blend as it was first written — two Resolves and,
// per channel, a closure ending in the math package's clamp and round — kept
// as the oracle for bilinear's straight-line form and for RoundByte.
func refBilinear(f *Frame, u, v float64, wrapX bool) (r, g, b byte) {
	x0 := int(math.Floor(u))
	y0 := int(math.Floor(v))
	fx := u - float64(x0)
	fy := v - float64(y0)
	xa, ya := Resolve(f.W, f.H, wrapX, x0, y0)
	xb, yb := Resolve(f.W, f.H, wrapX, x0+1, y0+1)
	p00, p10 := f.Pix[(ya*f.W+xa)*3:], f.Pix[(ya*f.W+xb)*3:]
	p01, p11 := f.Pix[(yb*f.W+xa)*3:], f.Pix[(yb*f.W+xb)*3:]
	lerp2 := func(c00, c10, c01, c11 byte) byte {
		top := float64(c00)*(1-fx) + float64(c10)*fx
		bot := float64(c01)*(1-fx) + float64(c11)*fx
		v := top*(1-fy) + bot*fy
		return refRoundByte(v)
	}
	return lerp2(p00[0], p10[0], p01[0], p11[0]),
		lerp2(p00[1], p10[1], p01[1], p11[1]),
		lerp2(p00[2], p10[2], p01[2], p11[2])
}

func refRoundByte(v float64) byte { return byte(math.Round(math.Min(255, math.Max(0, v)))) }

// TestBilinearMatchesReference: interior samples (the fast path), every
// border and corner, the wrap seam, texel centres, and one-texel axes.
func TestBilinearMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, dim := range [][2]int{{320, 160}, {7, 5}, {2, 2}, {1, 9}, {9, 1}, {1, 1}} {
		f := New(dim[0], dim[1])
		rng.Read(f.Pix)
		w, h := float64(f.W), float64(f.H)
		for n := 0; n < 20000; n++ {
			// Two texels of overhang on every side; a quarter of the
			// samples snap to the half-texel lattice.
			u, v := rng.Float64()*(w+4)-2.5, rng.Float64()*(h+4)-2.5
			if n%4 == 0 {
				u, v = math.Round(u*2)/2, math.Round(v*2)/2
			}
			for _, wrap := range []bool{false, true} {
				r, g, b := f.bilinear(u, v, wrap)
				rr, rg, rb := refBilinear(f, u, v, wrap)
				if r != rr || g != rg || b != rb {
					t.Fatalf("%dx%d wrap=%v at (%v, %v): got %d,%d,%d want %d,%d,%d", f.W, f.H, wrap, u, v, r, g, b, rr, rg, rb)
				}
			}
		}
	}
}

// TestRoundByte holds RoundByte to the math expression at every value where
// rounding half away from zero, the clamp, or float64 spacing could part them.
func TestRoundByte(t *testing.T) {
	vals := []float64{-1e300, -300, -1, -0.5, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.49999999999999994, 127.49999999999999, 254.99999999999997,
		math.Nextafter(255, 256), 255.5, 256, 300, 1e300, math.Inf(1), math.Inf(-1)}
	for k := 0; k <= 255; k++ {
		for _, v := range []float64{float64(k), float64(k) + 0.5} {
			vals = append(vals, v, math.Nextafter(v, -1), math.Nextafter(v, 256))
		}
	}
	rng := rand.New(rand.NewSource(19))
	for n := 0; n < 100000; n++ {
		vals = append(vals, rng.Float64()*258-1.5)
	}
	for _, v := range vals {
		if got, want := RoundByte(v), refRoundByte(v); got != want {
			t.Errorf("RoundByte(%v) = %d, want %d", v, got, want)
		}
	}
}
