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

func TestRotationsCompose(t *testing.T) {
	f := randFrame(12, 8, 112)
	// Four 90° turns are the identity.
	r := f
	for i := 0; i < 4; i++ {
		r = Rotate(r, Rotate90)
	}
	if !r.Equal(f) {
		t.Error("4×90° is not identity")
	}
	// Two 90° turns equal one 180°.
	twice := Rotate(Rotate(f, Rotate90), Rotate90)
	if !twice.Equal(Rotate(f, Rotate180)) {
		t.Error("90°+90° != 180°")
	}
	// 90° then 270° is identity.
	if !Rotate(Rotate(f, Rotate90), Rotate270).Equal(f) {
		t.Error("90°+270° != identity")
	}
}

func TestRotate90Geometry(t *testing.T) {
	f := frame.New(3, 2)
	f.Set(0, 0, 255, 0, 0) // top-left marker
	r := Rotate(f, Rotate90)
	if r.W != 2 || r.H != 3 {
		t.Fatalf("rotated frame is %dx%d", r.W, r.H)
	}
	// Clockwise: top-left goes to top-right.
	if red, _, _ := r.At(1, 0); red != 255 {
		t.Error("top-left marker did not land at top-right")
	}
}

func TestRotate0Copies(t *testing.T) {
	f := randFrame(4, 4, 113)
	r := Rotate(f, Rotate0)
	if !r.Equal(f) {
		t.Error("identity rotation changed pixels")
	}
	r.Set(0, 0, 1, 2, 3)
	if f.Equal(r) {
		t.Error("identity rotation aliased storage")
	}
}

func TestScale(t *testing.T) {
	f := frame.New(4, 4)
	f.Fill(10, 20, 30)
	up, err := Scale(f, 16, 8)
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

func TestPipelineProcess(t *testing.T) {
	f := randFrame(8, 4, 114)
	p := Pipeline{Rotation: Rotate90, PanelW: 10, PanelH: 20}
	out, err := p.Process(f)
	if err != nil {
		t.Fatal(err)
	}
	if out.W != 10 || out.H != 20 {
		t.Fatalf("pipeline output %dx%d", out.W, out.H)
	}
	// No-op pipeline returns equal pixels.
	same, err := (Pipeline{}).Process(f)
	if err != nil || !same.Equal(f) {
		t.Error("no-op pipeline changed the frame")
	}
}
