package client

import (
	"math/rand"
	"testing"

	"evr/internal/conformance"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/hmd"
	"evr/internal/projection"
	"evr/internal/server"
)

func randomFrame(rng *rand.Rand, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	return f
}

// benchCrop is the hit path at the gated benchmark's geometry: the central
// 110° of a 150° FOV frame onto the 213×120 viewport.
func benchCrop(t testing.TB) (projection.Viewport, *server.Manifest, hmd.Config) {
	t.Helper()
	h := hmd.Config{DisplayW: 213, DisplayH: 120, FOVXDeg: 110, FOVYDeg: 110}
	vp := projection.Viewport{Width: 213, Height: 120, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	return vp, &server.Manifest{FOVW: 128, FOVH: 128, FOVXDeg: 150, FOVYDeg: 150}, h
}

// TestDisplayCropMatchesReference: the session's crop reproduces, byte for
// byte, the frames PR 18's per-session displayCrop produced for the same
// inputs (checksums recorded at that commit) — also when FOV frame dimensions
// change mid-session. display.TestScalerMatchesReference holds the Scaler
// under it to the per-pixel crop; this pins the player's use of it.
func TestDisplayCropMatchesReference(t *testing.T) {
	vp, man, h := benchCrop(t)
	crop, err := newHitCrop(vp, h, man)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	for i, tc := range []struct {
		w, h int
		sum  uint64
	}{
		{128, 128, 0x75b95876cfc89e6a},
		{128, 128, 0x52e847e02a21a6c3},
		{252, 142, 0xceceb0f73e63f8d2},
	} {
		fov := randomFrame(rng, tc.w, tc.h)
		got, err := crop.Apply(fov)
		if err != nil {
			t.Fatal(err)
		}
		if sum := conformance.Checksum(got); sum != tc.sum {
			t.Errorf("frame %d (%dx%d): checksum %#x, PR 18 produced %#x", i, tc.w, tc.h, sum, tc.sum)
		}
	}
	if _, err := crop.Apply(nil); err == nil {
		t.Error("nil FOV frame accepted")
	}
}

// BenchmarkCropToViewport is one hit frame at the gated benchmark's geometry.
func BenchmarkCropToViewport(b *testing.B) {
	vp, man, h := benchCrop(b)
	crop, err := newHitCrop(vp, h, man)
	if err != nil {
		b.Fatal(err)
	}
	fov := randomFrame(rand.New(rand.NewSource(1)), 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crop.Apply(fov); err != nil {
			b.Fatal(err)
		}
	}
}
