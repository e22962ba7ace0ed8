package frame

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndDimensions(t *testing.T) {
	f := New(8, 4)
	if f.W != 8 || f.H != 4 || len(f.Pix) != 8*4*3 {
		t.Fatalf("unexpected frame %dx%d len %d", f.W, f.H, len(f.Pix))
	}
	if f.Bytes() != 96 {
		t.Errorf("Bytes = %d", f.Bytes())
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative dimensions")
		}
	}()
	New(-1, 5)
}

func TestSetAtRoundTrip(t *testing.T) {
	f := New(4, 4)
	f.Set(2, 3, 10, 20, 30)
	r, g, b := f.At(2, 3)
	if r != 10 || g != 20 || b != 30 {
		t.Errorf("At = %d,%d,%d", r, g, b)
	}
}

func TestAtClampsBorder(t *testing.T) {
	f := New(3, 3)
	f.Set(0, 0, 1, 2, 3)
	f.Set(2, 2, 4, 5, 6)
	if r, _, _ := f.At(-5, -5); r != 1 {
		t.Errorf("top-left clamp r = %d", r)
	}
	if r, _, _ := f.At(10, 10); r != 4 {
		t.Errorf("bottom-right clamp r = %d", r)
	}
}

func TestSetOutOfRangeIgnored(t *testing.T) {
	f := New(2, 2)
	f.Set(-1, 0, 255, 255, 255)
	f.Set(0, 2, 255, 255, 255)
	for _, p := range f.Pix {
		if p != 0 {
			t.Fatal("out-of-range Set modified the frame")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	f := New(2, 2)
	f.Set(0, 0, 9, 9, 9)
	g := f.Clone()
	g.Set(0, 0, 1, 1, 1)
	if r, _, _ := f.At(0, 0); r != 9 {
		t.Error("clone shares backing storage")
	}
	if !f.Equal(f.Clone()) {
		t.Error("clone should equal original")
	}
}

func TestLuma(t *testing.T) {
	f := New(1, 1)
	f.Set(0, 0, 255, 255, 255)
	if got := f.Luma(0, 0); got != 255 {
		t.Errorf("white luma = %d", got)
	}
	f.Set(0, 0, 0, 0, 0)
	if got := f.Luma(0, 0); got != 0 {
		t.Errorf("black luma = %d", got)
	}
	f.Set(0, 0, 255, 0, 0)
	if got := f.Luma(0, 0); got != 76 { // 0.299*255
		t.Errorf("red luma = %d, want 76", got)
	}
}

func TestBilinearAtCorners(t *testing.T) {
	f := New(2, 2)
	f.Set(0, 0, 0, 0, 0)
	f.Set(1, 0, 100, 0, 0)
	f.Set(0, 1, 0, 100, 0)
	f.Set(1, 1, 100, 100, 0)
	// Exactly on a pixel returns that pixel.
	if r, _, _ := f.BilinearAt(1, 0); r != 100 {
		t.Errorf("corner sample r = %d", r)
	}
	// Center of the quad is the average.
	r, g, _ := f.BilinearAt(0.5, 0.5)
	if r != 50 || g != 50 {
		t.Errorf("center sample = %d,%d, want 50,50", r, g)
	}
}

func TestBilinearMatchesNearestOnIntegerGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := New(8, 8)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			br, bg, bb := f.BilinearAt(float64(x), float64(y))
			ar, ag, ab := f.At(x, y)
			if br != ar || bg != ag || bb != ab {
				t.Fatalf("bilinear at integer (%d,%d) = %d,%d,%d want %d,%d,%d", x, y, br, bg, bb, ar, ag, ab)
			}
		}
	}
}

func TestMAEAndPSNR(t *testing.T) {
	a := New(4, 4)
	b := a.Clone()
	if MAE(a, b) != 0 {
		t.Error("identical frames should have zero MAE")
	}
	if !math.IsInf(PSNR(a, b), 1) {
		t.Error("identical frames should have infinite PSNR")
	}
	for i := 0; i < len(b.Pix); i += 3 {
		b.Pix[i], b.Pix[i+1], b.Pix[i+2] = 255, 255, 255
	}
	if got := MAE(a, b); got != 1 {
		t.Errorf("max MAE = %v, want 1", got)
	}
	if got := PSNR(a, b); got != 0 {
		t.Errorf("max-diff PSNR = %v, want 0", got)
	}
}

func TestMAEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for dimension mismatch")
		}
	}()
	MAE(New(1, 1), New(2, 2))
}

func TestPSNRMonotonicProperty(t *testing.T) {
	// Adding more noise can only lower (or keep) PSNR.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(6, 6)
		for i := range a.Pix {
			a.Pix[i] = byte(rng.Intn(256))
		}
		small := a.Clone()
		large := a.Clone()
		for i := range small.Pix {
			n := rng.Intn(8)
			small.Pix[i] = clampByte(int(small.Pix[i]) + n)
			large.Pix[i] = clampByte(int(large.Pix[i]) + n + rng.Intn(64))
		}
		return PSNR(a, large) <= PSNR(a, small)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

func clampByte(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

func TestEqualDifferentSizes(t *testing.T) {
	if New(1, 2).Equal(New(2, 1)) {
		t.Error("frames of different shape must not be equal")
	}
}
