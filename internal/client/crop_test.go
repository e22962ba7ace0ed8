package client

import (
	"math"
	"math/rand"
	"testing"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
)

// refCrop is the crop as it was first written — every output pixel's (u, v)
// derived afresh and sampled through frame.BilinearAt — kept as the oracle
// for displayCrop.
func refCrop(fov *frame.Frame, vp projection.Viewport, fracX, fracY float64) *frame.Frame {
	out := frame.New(vp.Width, vp.Height)
	w := float64(fov.W) * fracX
	h := float64(fov.H) * fracY
	x0 := (float64(fov.W) - w) / 2
	y0 := (float64(fov.H) - h) / 2
	for y := 0; y < vp.Height; y++ {
		for x := 0; x < vp.Width; x++ {
			u := x0 + (float64(x)+0.5)/float64(vp.Width)*w - 0.5
			v := y0 + (float64(y)+0.5)/float64(vp.Height)*h - 0.5
			r, g, b := fov.BilinearAt(u, v)
			out.Set(x, y, r, g, b)
		}
	}
	return out
}

func randomFrame(rng *rand.Rand, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	return f
}

// TestDisplayCropMatchesReference: byte identity with the per-pixel crop for
// down- and up-scaling, a crop fraction of 1 (taps clamp at every border),
// and FOV frame dimensions changing mid-session.
func TestDisplayCropMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, tc := range []struct {
		vpW, vpH     int
		fracX, fracY float64
		dims         [][2]int
	}{
		{213, 120, 110.0 / 150, 110.0 / 150, [][2]int{{128, 128}, {128, 128}, {252, 142}}},
		{64, 36, 110.0 / 125, 110.0 / 125, [][2]int{{32, 20}, {300, 200}}},
		{40, 40, 1, 1, [][2]int{{40, 40}, {7, 5}, {1, 1}}},
		{17, 9, 0.37, 0.81, [][2]int{{96, 48}}},
	} {
		vp := projection.Viewport{Width: tc.vpW, Height: tc.vpH, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
		crop := displayCrop{vp: vp, fracX: tc.fracX, fracY: tc.fracY}
		for _, dim := range tc.dims {
			fov := randomFrame(rng, dim[0], dim[1])
			if got, want := crop.apply(fov), refCrop(fov, vp, tc.fracX, tc.fracY); !got.Equal(want) {
				t.Errorf("%dx%d ← %dx%d at %.2f×%.2f: crop differs from the per-pixel reference",
					tc.vpW, tc.vpH, dim[0], dim[1], tc.fracX, tc.fracY)
			}
		}
	}
}

func TestRoundByte(t *testing.T) {
	for _, v := range []float64{-1, math.Copysign(0, -1), 0, 0.49999999999999994, 0.5, 1.5, 2.5,
		127.49999999999999, 127.5, 254.5, 254.99999999999997, 255, 255.00000000000003, 300} {
		if got, want := roundByte(v), byte(math.Round(math.Min(255, math.Max(0, v)))); got != want {
			t.Errorf("roundByte(%v) = %d, want %d", v, got, want)
		}
	}
}

// BenchmarkCropToViewport is one hit frame at the gated benchmark's geometry:
// the central 110° of a 128×128, 150° FOV frame onto the 213×120 viewport.
func BenchmarkCropToViewport(b *testing.B) {
	vp := projection.Viewport{Width: 213, Height: 120, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	crop := displayCrop{vp: vp, fracX: 110.0 / 150, fracY: 110.0 / 150}
	fov := randomFrame(rand.New(rand.NewSource(1)), 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crop.apply(fov)
	}
}
