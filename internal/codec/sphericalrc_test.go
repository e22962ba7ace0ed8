package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"evr/internal/frame"
)

func noiseFrames(w, h, n int, seed int64) []*frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	var out []*frame.Frame
	base := frame.New(w, h)
	for i := range base.Pix {
		base.Pix[i] = byte(rng.Intn(256))
	}
	for f := 0; f < n; f++ {
		g := base.Clone()
		// Perturb a little per frame so inter coding has work to do.
		for k := 0; k < w*h/8; k++ {
			g.Pix[rng.Intn(len(g.Pix))] = byte(rng.Intn(256))
		}
		out = append(out, g)
		base = g
	}
	return out
}

func TestSphericalAllocateProperties(t *testing.T) {
	for _, bands := range []int{1, 2, 3, 4, 6, 8} {
		for _, target := range []int{bands, 100, 4096, 99999} {
			alloc, err := SphericalAllocate(64, bands, target, true)
			if err != nil {
				t.Fatalf("bands=%d target=%d: %v", bands, target, err)
			}
			sumBytes, sumFrac := 0, 0.0
			prevY := 0
			for _, b := range alloc {
				if b.Y0 != prevY || b.Y1 <= b.Y0 || b.Y0%blockSize != 0 || b.Y1%blockSize != 0 {
					t.Fatalf("bands=%d: bad band rows [%d,%d) after %d", bands, b.Y0, b.Y1, prevY)
				}
				if b.TargetBytes < 1 {
					t.Fatalf("bands=%d: band [%d,%d) got %d bytes", bands, b.Y0, b.Y1, b.TargetBytes)
				}
				prevY = b.Y1
				sumBytes += b.TargetBytes
				sumFrac += b.AreaFrac
			}
			if prevY != 64 {
				t.Fatalf("bands=%d: bands end at row %d, want 64", bands, prevY)
			}
			if sumBytes != target {
				t.Errorf("bands=%d target=%d: targets sum to %d", bands, target, sumBytes)
			}
			if math.Abs(sumFrac-1) > 1e-12 {
				t.Errorf("bands=%d: area fractions sum to %.15f", bands, sumFrac)
			}
		}
	}
}

// Spherical weighting must put more bytes on the equator band than on the
// pole bands of an equal-row split, and more than the flat row split does.
func TestSphericalAllocateFavorsEquator(t *testing.T) {
	weighted, err := SphericalAllocate(64, 4, 10000, true)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := SphericalAllocate(64, 4, 10000, false)
	if err != nil {
		t.Fatal(err)
	}
	// Bands 1 and 2 straddle the equator; 0 and 3 are the caps.
	if !(weighted[1].TargetBytes > weighted[0].TargetBytes && weighted[2].TargetBytes > weighted[3].TargetBytes) {
		t.Errorf("equator bands not favored: %+v", weighted)
	}
	if weighted[1].TargetBytes <= flat[1].TargetBytes {
		t.Errorf("weighted equator target %d not above flat %d", weighted[1].TargetBytes, flat[1].TargetBytes)
	}
	// A 45°-wide polar cap covers 1−sin45° ≈ 29.3% of its hemisphere.
	wantCap := (1 - math.Sqrt2/2) / 2
	if math.Abs(weighted[0].AreaFrac-wantCap) > 1e-12 {
		t.Errorf("cap area %.6f, want %.6f", weighted[0].AreaFrac, wantCap)
	}
}

func TestSphericalAllocateRejectsBadInputs(t *testing.T) {
	cases := []struct {
		h, bands, target int
	}{
		{60, 2, 100},  // height not block-aligned
		{0, 1, 100},   // empty
		{64, 0, 100},  // no bands
		{64, 9, 100},  // more bands than block rows
		{64, 4, 3},    // budget can't cover bands
		{-8, 1, 100},  // negative height
		{64, -2, 100}, // negative bands
	}
	for _, c := range cases {
		if _, err := SphericalAllocate(c.h, c.bands, c.target, true); err == nil {
			t.Errorf("SphericalAllocate(%d, %d, %d) accepted", c.h, c.bands, c.target)
		}
	}
}

// Fixed-q banded encoding is the primitive a two-pass allocator drives: it
// must honor the requested per-band quantizers exactly (each band stream
// byte-identical to a standalone fixed-q encode of that strip), report
// realized per-frame bytes, and round-trip.
func TestSphericalQEncode(t *testing.T) {
	frames := noiseFrames(48, 64, 4, 14)
	cfg := DefaultConfig()
	cfg.GOP = 2
	qs := []int{40, 8, 10, 56}
	bb, err := EncodeSequenceSphericalQ(cfg, frames, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bb.Streams) != len(qs) || len(bb.Bands) != len(qs) {
		t.Fatalf("got %d streams / %d bands, want %d", len(bb.Streams), len(bb.Bands), len(qs))
	}
	for i, band := range bb.Bands {
		c := cfg
		c.Quality = qs[i]
		strips := make([]*frame.Frame, len(frames))
		for j, f := range frames {
			strips[j] = bandStrip(f, band.Y0, band.Y1)
		}
		want, err := EncodeSequence(c, strips)
		if err != nil {
			t.Fatal(err)
		}
		got := bb.Streams[i]
		if len(got.Frames) != len(want.Frames) {
			t.Fatalf("band %d: %d frames vs %d", i, len(got.Frames), len(want.Frames))
		}
		for j := range got.Frames {
			if !bytes.Equal(got.Frames[j], want.Frames[j]) {
				t.Fatalf("band %d frame %d differs from standalone q=%d encode", i, j, qs[i])
			}
		}
		wantPerFrame := (want.TotalBytes() + len(frames) - 1) / len(frames)
		if band.TargetBytes != wantPerFrame {
			t.Errorf("band %d realized bytes %d, want %d", i, band.TargetBytes, wantPerFrame)
		}
	}
	dec, err := bb.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(dec), len(frames))
	}
	for i, d := range dec {
		if d.W != 48 || d.H != 64 {
			t.Fatalf("frame %d decoded as %dx%d", i, d.W, d.H)
		}
	}
}

func TestSphericalQEncodeRejectsBadInputs(t *testing.T) {
	frames := noiseFrames(48, 64, 2, 15)
	cfg := DefaultConfig()
	if _, err := EncodeSequenceSphericalQ(cfg, nil, []int{12}); err == nil {
		t.Error("no frames accepted")
	}
	if _, err := EncodeSequenceSphericalQ(cfg, frames, nil); err == nil {
		t.Error("no quantizers accepted")
	}
	if _, err := EncodeSequenceSphericalQ(cfg, frames, []int{12, 0}); err == nil {
		t.Error("invalid band quantizer accepted")
	}
	if _, err := EncodeSequenceSphericalQ(cfg, frames, make([]int, 64/blockSize+1)); err == nil {
		t.Error("more bands than block rows accepted")
	}
	mixed := []*frame.Frame{frames[0], frame.New(48, 32)}
	if _, err := EncodeSequenceSphericalQ(cfg, mixed, []int{12}); err == nil {
		t.Error("mismatched frame sizes accepted")
	}
	bad := cfg
	bad.GOP = 0
	if _, err := EncodeSequenceSphericalQ(bad, frames, []int{12}); err == nil {
		t.Error("invalid config accepted")
	}
}
