package frame

import "testing"

// wrapFrame builds a 4×2 frame whose pixel red channel encodes the column
// index (scaled) so edge policies are easy to distinguish.
func wrapFrame() *Frame {
	f := New(4, 2)
	for y := 0; y < 2; y++ {
		for x := 0; x < 4; x++ {
			f.Set(x, y, byte(40*x), byte(10*y), 7)
		}
	}
	return f
}

func TestAtWrapXWrapsColumnsClampsRows(t *testing.T) {
	f := wrapFrame()
	cases := []struct {
		x, y  int
		wantR byte
		wantG byte
	}{
		{4, 0, 0, 0},    // one past the right edge → column 0
		{-1, 0, 120, 0}, // one past the left edge → column 3
		{5, 0, 40, 0},   // two past → column 1
		{-5, 0, 120, 0}, // -5 mod 4 = 3
		{0, -3, 0, 0},   // rows clamp at the top
		{0, 9, 0, 10},   // rows clamp at the bottom
	}
	for _, c := range cases {
		r, g, _ := f.AtWrapX(c.x, c.y)
		if r != c.wantR || g != c.wantG {
			t.Errorf("AtWrapX(%d, %d) = (%d, %d), want (%d, %d)", c.x, c.y, r, g, c.wantR, c.wantG)
		}
	}
}

func TestAtWrapXMatchesAtInsideFrame(t *testing.T) {
	f := wrapFrame()
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r1, g1, b1 := f.At(x, y)
			r2, g2, b2 := f.AtWrapX(x, y)
			if r1 != r2 || g1 != g2 || b1 != b2 {
				t.Fatalf("in-range (%d, %d) differs between At and AtWrapX", x, y)
			}
		}
	}
}

func TestBilinearAtWrapXBlendsAcrossSeam(t *testing.T) {
	// Column 0 is white, the rest black: sampling midway between the last
	// and first columns must blend half the white back in, where the
	// clamped sampler repeats the black border.
	f := New(4, 2)
	for y := 0; y < 2; y++ {
		f.Set(0, y, 255, 255, 255)
	}
	r, _, _ := f.BilinearAtWrapX(3.5, 0)
	if r != 128 {
		t.Errorf("wrap sample at seam = %d, want 128 (half white)", r)
	}
	rc, _, _ := f.BilinearAt(3.5, 0)
	if rc != 0 {
		t.Errorf("clamp sample at seam = %d, want 0 (border repeat)", rc)
	}
}

func TestBilinearAtWrapXMatchesClampAwayFromSeam(t *testing.T) {
	f := wrapFrame()
	for _, uv := range [][2]float64{{0.5, 0.5}, {1.25, 0.75}, {2.0, 0.0}} {
		r1, g1, b1 := f.BilinearAt(uv[0], uv[1])
		r2, g2, b2 := f.BilinearAtWrapX(uv[0], uv[1])
		if r1 != r2 || g1 != g2 || b1 != b2 {
			t.Errorf("interior sample (%v, %v) differs between clamp and wrap", uv[0], uv[1])
		}
	}
}

// TestResolveEdgePolicy pins the one edge policy: y always clamps; x wraps
// modulo the width when asked to and clamps otherwise, for coordinates any
// number of widths outside the frame.
func TestResolveEdgePolicy(t *testing.T) {
	const w, h = 5, 3
	for _, tc := range []struct {
		wrap         bool
		x, y, wx, wy int
	}{
		{false, 2, 1, 2, 1},
		{false, -1, -1, 0, 0},
		{false, 5, 3, 4, 2},
		{false, -12, 40, 0, 2},
		{true, 2, 1, 2, 1},
		{true, -1, -1, 4, 0},
		{true, 5, 3, 0, 2},
		{true, -12, 40, 3, 2},
		{true, 14, 0, 4, 0},
	} {
		if x, y := Resolve(w, h, tc.wrap, tc.x, tc.y); x != tc.wx || y != tc.wy {
			t.Errorf("Resolve(wrap=%v, %d, %d) = (%d, %d), want (%d, %d)", tc.wrap, tc.x, tc.y, x, y, tc.wx, tc.wy)
		}
	}
}

// TestStencilMatchesResolve: each of Stencil's four taps is Resolve of that
// tap, for both edge policies, every small raster shape and every top-left
// corner from far outside the raster to far past it.
func TestStencilMatchesResolve(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		for w := 1; w <= 5; w++ {
			for h := 1; h <= 4; h++ {
				for y0 := -3 * h; y0 <= 3*h; y0++ {
					for x0 := -3 * w; x0 <= 3*w; x0++ {
						xa, ya, xb, yb := Stencil(w, h, wrap, x0, y0)
						ra, rya := Resolve(w, h, wrap, x0, y0)
						rb, ryb := Resolve(w, h, wrap, x0+1, y0+1)
						if xa != ra || ya != rya || xb != rb || yb != ryb {
							t.Fatalf("Stencil(%d, %d, %v, %d, %d) = (%d, %d, %d, %d), Resolve gives (%d, %d, %d, %d)",
								w, h, wrap, x0, y0, xa, ya, xb, yb, ra, rya, rb, ryb)
						}
					}
				}
			}
		}
	}
}
