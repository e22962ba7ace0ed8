package quality

import (
	"math"
	"math/rand"
	"testing"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
)

// sphereScene paints a smooth function of the viewing direction into a
// panorama raster, so the same sphere content can be rasterized under any
// projection method.
func sphereScene(m projection.Method, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dir := projection.ToSphere(m, (float64(x)+0.5)/float64(w), (float64(y)+0.5)/float64(h))
			s := geom.FromCartesian(dir)
			r := byte(128 + 70*math.Cos(s.Phi)*math.Sin(2*s.Theta) + 30*math.Sin(s.Phi))
			g := byte(128 + 70*math.Cos(s.Phi)*math.Cos(s.Theta) - 40*math.Sin(s.Phi))
			b := byte(128 + 60*math.Sin(3*s.Theta)*math.Cos(s.Phi) + 25*math.Cos(2*s.Phi))
			f.Set(x, y, r, g, b)
		}
	}
	return f
}

// noisy returns a copy of f with uniform noise of the given amplitude added
// to every channel, deterministically.
func noisy(f *frame.Frame, amp int, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	out := frame.New(f.W, f.H)
	for i, p := range f.Pix {
		d := rng.Intn(2*amp+1) - amp
		v := int(p) + d
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		out.Pix[i] = byte(v)
	}
	return out
}

// vp90 is a 90°×90° viewport of the given size.
func vp90(w, h int) projection.Viewport {
	return projection.Viewport{Width: w, Height: h, FOVX: geom.Radians(90), FOVY: geom.Radians(90)}
}

func TestIdenticalFramesScoreInf(t *testing.T) {
	a := sphereScene(projection.ERP, 48, 24)
	tab := ViewportWeights(vp90(48, 24))
	if got, err := tab.WeightedPSNR(a, a); err != nil || !math.IsInf(got, 1) {
		t.Errorf("WeightedPSNR(a,a) = %v, %v; want +Inf, nil", got, err)
	}
	if mse, err := tab.WeightedMSE(a, a); err != nil || mse != 0 {
		t.Errorf("WeightedMSE(a,a) = %v, %v; want 0, nil", mse, err)
	}
}

// More noise must never improve the score.
func TestMonotoneDegradation(t *testing.T) {
	a := sphereScene(projection.ERP, 96, 48)
	tab := ViewportWeights(vp90(96, 48))
	prev := math.Inf(1)
	for _, amp := range []int{2, 6, 14, 30, 60} {
		ws, err := tab.WeightedPSNR(a, noisy(a, amp, 3))
		if err != nil {
			t.Fatal(err)
		}
		if ws >= prev {
			t.Errorf("WeightedPSNR not monotone: amp %d scored %.3f ≥ previous %.3f", amp, ws, prev)
		}
		prev = ws
	}
}

func TestWeightedMetricsRejectMismatch(t *testing.T) {
	a := sphereScene(projection.ERP, 48, 24)
	b := sphereScene(projection.ERP, 96, 48)
	tab := ViewportWeights(vp90(48, 24))
	if _, err := tab.WeightedMSE(a, b); err == nil {
		t.Error("WeightedMSE dims mismatch should error")
	}
	if _, err := tab.WeightedMSE(b, b); err == nil {
		t.Error("WeightedMSE table/frame mismatch should error")
	}
}

func TestViewportWeights(t *testing.T) {
	tab := ViewportWeights(vp90(32, 32))
	// Solid angle of a square 90°×90°-extent pyramid: 4·asin(tan²(45°)/ (1+tan²)) …
	// easier: the plane rectangle [−1,1]² at z=1 subtends 4·atan(1/√3) = 2π/3.
	want := 2 * math.Pi / 3
	if rel := math.Abs(tab.Sum-want) / want; rel > 1e-9 {
		t.Errorf("viewport table sum %.12f, want 2π/3 (rel %.2e)", tab.Sum, rel)
	}
	// Center pixels subtend more solid angle than corners on the plane.
	center := tab.Weights[(16*32)+16]
	corner := tab.Weights[0]
	if center <= corner {
		t.Errorf("center weight %g should exceed corner weight %g", center, corner)
	}
}

func TestBandProfile(t *testing.T) {
	const w, h = 96, 48
	a := sphereScene(projection.ERP, w, h)
	b := frame.New(w, h)
	copy(b.Pix, a.Pix)
	// Corrupt only the top quarter (north pole region).
	for y := 0; y < h/4; y++ {
		for x := 0; x < w; x++ {
			r, g, bl := b.At(x, y)
			b.Set(x, y, r^0x3f, g, bl)
		}
	}
	// Latitude falls row by row from +90° to −90°, as a caller that knows
	// the head orientation would fill it.
	tab := ViewportWeights(vp90(w, h))
	if _, err := tab.BandProfile(a, b, 4); err == nil {
		t.Error("BandProfile without latitude data should error")
	}
	tab.Lat = make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			tab.Lat[y*w+x] = math.Pi/2 - math.Pi*(float64(y)+0.5)/h
		}
	}
	bands, err := tab.BandProfile(a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 4 {
		t.Fatalf("got %d bands, want 4", len(bands))
	}
	var wsum float64
	for _, bd := range bands {
		wsum += bd.Weight
	}
	if rel := math.Abs(wsum-tab.Sum) / tab.Sum; rel > 1e-9 {
		t.Errorf("band weights sum to %.12f, want the table's %.12f", wsum, tab.Sum)
	}
	// Bands are south→north: only the last (northmost) band was corrupted.
	for i, bd := range bands[:3] {
		if bd.MSE != 0 {
			t.Errorf("band %d [%g,%g] MSE %g, want 0", i, bd.LatMinDeg, bd.LatMaxDeg, bd.MSE)
		}
	}
	if bands[3].MSE == 0 {
		t.Error("north band should carry the injected error")
	}
}
