package display

import (
	"math/rand"
	"testing"
	"testing/quick"

	"evr/internal/frame"
)

func randFrame(w, h int, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	return f
}

func TestColorConversionAnchors(t *testing.T) {
	// Black, white, and mid-gray have known YCbCr values.
	y, cb, cr := RGBToYCbCr(0, 0, 0)
	if y != 0 || cb != 128 || cr != 128 {
		t.Errorf("black -> %d,%d,%d", y, cb, cr)
	}
	y, cb, cr = RGBToYCbCr(255, 255, 255)
	if y != 255 || cb != 128 || cr != 128 {
		t.Errorf("white -> %d,%d,%d", y, cb, cr)
	}
	y, _, cr = RGBToYCbCr(255, 0, 0)
	if y != 76 || cr < 250 {
		t.Errorf("red -> y=%d cr=%d", y, cr)
	}
}

func TestColorRoundTripProperty(t *testing.T) {
	prop := func(r, g, b byte) bool {
		y, cb, cr := RGBToYCbCr(r, g, b)
		r2, g2, b2 := YCbCrToRGB(y, cb, cr)
		return absDiff(r, r2) <= 2 && absDiff(g, g2) <= 2 && absDiff(b, b2) <= 2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(110))}); err != nil {
		t.Error(err)
	}
}

func absDiff(a, b byte) int {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	return d
}

func TestFrameColorRoundTrip(t *testing.T) {
	f := randFrame(16, 8, 111)
	back := ToRGB(ToYCbCr(f))
	if mae := frame.MAE(f, back); mae > 2.0/255 {
		t.Errorf("frame color round trip MAE = %v", mae)
	}
}

func TestScale(t *testing.T) {
	f := frame.New(4, 4)
	for i := 0; i < len(f.Pix); i += 3 {
		f.Pix[i], f.Pix[i+1], f.Pix[i+2] = 10, 20, 30
	}
	s, err := NewScaler(16, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	up, err := s.Apply(f)
	if err != nil {
		t.Fatal(err)
	}
	if up.W != 16 || up.H != 8 {
		t.Fatalf("scaled to %dx%d", up.W, up.H)
	}
	for i := 0; i < len(up.Pix); i += 3 {
		if up.Pix[i] != 10 || up.Pix[i+1] != 20 || up.Pix[i+2] != 30 {
			t.Fatal("uniform frame changed under scaling")
		}
	}
}
