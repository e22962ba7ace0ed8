package pt

import (
	"math"
	"math/rand"
	"testing"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
)

func testViewport() projection.Viewport {
	return projection.Viewport{Width: 40, Height: 40, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Projection: projection.ERP, Filter: Bilinear, Viewport: testViewport()}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Projection: projection.ERP, Viewport: projection.Viewport{Width: 0, Height: 10, FOVX: 1, FOVY: 1}},
		{Projection: projection.ERP, Viewport: projection.Viewport{Width: 10, Height: 10, FOVX: 0, FOVY: 1}},
		{Projection: projection.ERP, Viewport: projection.Viewport{Width: 10, Height: 10, FOVX: 1, FOVY: 4}},
		{Projection: projection.Method(9), Viewport: testViewport()},
		{Projection: projection.ERP, Filter: Filter(7), Viewport: testViewport()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFilterString(t *testing.T) {
	if Nearest.String() != "nearest" || Bilinear.String() != "bilinear" {
		t.Error("filter names broken")
	}
}

// sphereFrame renders a full ERP frame where each pixel encodes its own
// direction: R = longitude band, G = latitude band. This gives PT output we
// can verify analytically.
func sphereFrame(w, h int) *frame.Frame {
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, byte(255*x/w), byte(255*y/h), 128)
		}
	}
	return f
}

func TestRenderCenterPixelLooksForward(t *testing.T) {
	full := sphereFrame(360, 180)
	for _, m := range projection.Methods {
		cfg := Config{Projection: m, Filter: Nearest, Viewport: testViewport()}
		o := geom.Orientation{Yaw: geom.Radians(30), Pitch: geom.Radians(10)}
		// Build the projection-specific full frame: encode direction color.
		fullM := frame.New(full.W, full.H)
		for y := 0; y < full.H; y++ {
			for x := 0; x < full.W; x++ {
				dir := projection.ToSphere(m, (float64(x)+0.5)/float64(full.W), (float64(y)+0.5)/float64(full.H))
				s := geom.FromCartesian(dir)
				fullM.Set(x, y, byte((s.Theta+math.Pi)/(2*math.Pi)*255), byte((math.Pi/2-s.Phi)/math.Pi*255), 0)
			}
		}
		out := Render(cfg, fullM, o)
		r, g, _ := out.At(cfg.Viewport.Width/2, cfg.Viewport.Height/2)
		wantR := byte((o.Yaw + math.Pi) / (2 * math.Pi) * 255)
		wantG := byte((math.Pi/2 - o.Pitch) / math.Pi * 255)
		if math.Abs(float64(r)-float64(wantR)) > 4 || math.Abs(float64(g)-float64(wantG)) > 4 {
			t.Errorf("%v: center pixel = (%d,%d), want ~(%d,%d)", m, r, g, wantR, wantG)
		}
	}
}

func TestRenderUniformFrameStaysUniform(t *testing.T) {
	full := frame.New(128, 64)
	for i := 0; i < len(full.Pix); i += 3 {
		full.Pix[i], full.Pix[i+1], full.Pix[i+2] = 37, 73, 110
	}
	for _, m := range projection.Methods {
		for _, flt := range []Filter{Nearest, Bilinear} {
			cfg := Config{Projection: m, Filter: flt, Viewport: testViewport()}
			out := Render(cfg, full, geom.Orientation{Yaw: 1.2, Pitch: -0.3})
			for i := 0; i < len(out.Pix); i += 3 {
				if out.Pix[i] != 37 || out.Pix[i+1] != 73 || out.Pix[i+2] != 110 {
					t.Fatalf("%v/%v: uniform input produced non-uniform output at %d", m, flt, i/3)
				}
			}
		}
	}
}

func TestRenderYawShiftsERPHorizontally(t *testing.T) {
	// With a horizontal gradient ERP frame, increasing yaw must increase
	// the sampled red channel at the center (until wraparound).
	full := sphereFrame(360, 180)
	cfg := Config{Projection: projection.ERP, Filter: Nearest, Viewport: testViewport()}
	var prev float64 = -1
	for yawDeg := -60; yawDeg <= 60; yawDeg += 30 {
		out := Render(cfg, full, geom.Orientation{Yaw: geom.Radians(float64(yawDeg))})
		r, _, _ := out.At(20, 20)
		if float64(r) <= prev {
			t.Fatalf("red channel not increasing with yaw: %d at %d°", r, yawDeg)
		}
		prev = float64(r)
	}
}

func TestBilinearSmootherThanNearest(t *testing.T) {
	// On a high-frequency checkerboard, bilinear output has lower total
	// variation than nearest-neighbor output.
	full := frame.New(256, 128)
	for y := 0; y < full.H; y++ {
		for x := 0; x < full.W; x++ {
			if (x+y)%2 == 0 {
				full.Set(x, y, 255, 255, 255)
			}
		}
	}
	vp := testViewport()
	variation := func(f *frame.Frame) (tv float64) {
		for j := 0; j < f.H; j++ {
			for i := 1; i < f.W; i++ {
				a := f.Luma(i, j)
				b := f.Luma(i-1, j)
				tv += math.Abs(float64(a - b))
			}
		}
		return tv
	}
	o := geom.Orientation{}
	nearest := Render(Config{Projection: projection.ERP, Filter: Nearest, Viewport: vp}, full, o)
	bilinear := Render(Config{Projection: projection.ERP, Filter: Bilinear, Viewport: vp}, full, o)
	if variation(bilinear) >= variation(nearest) {
		t.Errorf("bilinear TV %v should be below nearest TV %v", variation(bilinear), variation(nearest))
	}
}

func TestRenderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	full := frame.New(64, 32)
	for i := range full.Pix {
		full.Pix[i] = byte(rng.Intn(256))
	}
	cfg := Config{Projection: projection.EAC, Filter: Bilinear, Viewport: testViewport()}
	o := geom.Orientation{Yaw: 0.5, Pitch: 0.1}
	a := Render(cfg, full, o)
	b := Render(cfg, full, o)
	if !a.Equal(b) {
		t.Error("render is not deterministic")
	}
}

func TestRenderPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Render(Config{}, frame.New(4, 4), geom.Orientation{})
}
