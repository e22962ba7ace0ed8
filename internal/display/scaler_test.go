package display

import (
	"testing"

	"evr/internal/frame"
)

// TestScalerMatchesReference: byte identity with the per-pixel scaler for
// up- and down-scaling, identity, odd sizes, one-texel axes on either side,
// and source dimensions changing under one Scaler.
func TestScalerMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		w, h int
		srcs [][2]int
	}{
		{320, 160, [][2]int{{80, 40}}}, // tiled_view's backfill upscale
		{80, 40, [][2]int{{320, 160}}}, // and its ingest-side downscale
		{213, 120, [][2]int{{128, 128}, {128, 128}, {252, 142}}},
		{64, 36, [][2]int{{32, 20}, {300, 200}}},
		{40, 40, [][2]int{{40, 40}, {7, 5}, {1, 1}}},
		{17, 9, [][2]int{{96, 48}}},
		{33, 7, [][2]int{{1, 19}, {23, 1}, {5, 3}}},
		{1, 1, [][2]int{{9, 9}, {2, 2}}},
		{1, 31, [][2]int{{12, 4}}},
		{29, 1, [][2]int{{3, 50}}},
	} {
		s, err := NewScaler(tc.w, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		for i, dim := range tc.srcs {
			src := randFrame(dim[0], dim[1], int64(190+i))
			got, err := s.Apply(src)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(refScale(src, tc.w, tc.h)) {
				t.Errorf("%dx%d ← %dx%d: differs from the per-pixel scale", tc.w, tc.h, dim[0], dim[1])
			}
		}
	}
}

// FuzzScaler holds the Scaler to the per-pixel scale over random geometry:
// source 1–96², target 1–160².
func FuzzScaler(f *testing.F) {
	f.Add(uint8(80), uint8(40), uint8(160), uint8(80), int64(1))
	f.Add(uint8(96), uint8(96), uint8(53), uint8(30), int64(2))
	f.Add(uint8(1), uint8(1), uint8(7), uint8(3), int64(3))
	f.Add(uint8(12), uint8(4), uint8(0), uint8(30), int64(4))
	f.Add(uint8(3), uint8(50), uint8(28), uint8(0), int64(5))
	f.Fuzz(func(t *testing.T, sw, sh, dw, dh uint8, seed int64) {
		srcW, srcH := int(sw)%96+1, int(sh)%96+1
		w, h := int(dw)%160+1, int(dh)%160+1
		src := randFrame(srcW, srcH, seed)
		s, err := NewScaler(w, h)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Apply(src)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(refScale(src, w, h)) {
			t.Errorf("%dx%d ← %dx%d: differs from the per-pixel scale", w, h, srcW, srcH)
		}
	})
}

// TestScalerRejects: a degenerate target or source is an error at the
// boundary, never an out-of-range slice inside the row loop.
func TestScalerRejects(t *testing.T) {
	for _, dim := range [][2]int{{0, 5}, {5, -1}} {
		if _, err := NewScaler(dim[0], dim[1]); err == nil {
			t.Errorf("NewScaler(%d, %d) accepted", dim[0], dim[1])
		}
	}
	s, err := NewScaler(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*frame.Frame{
		"nil":   nil,
		"empty": frame.New(0, 0),
		"flat":  frame.New(6, 0),
		"short": {W: 4, H: 4, Pix: make([]byte, 10)},
	} {
		if _, err := s.Apply(bad); err == nil {
			t.Errorf("%s source accepted", name)
		}
	}
}

// TestScalerApplyInto: writing into a caller's frame — dirty from an earlier
// frame — equals Apply, allocates nothing once the taps are mapped, and a
// destination of the wrong size is an error.
func TestScalerApplyInto(t *testing.T) {
	s, err := NewScaler(320, 160)
	if err != nil {
		t.Fatal(err)
	}
	dst := randFrame(320, 160, 7)
	for i := int64(0); i < 2; i++ {
		src := randFrame(80, 40, 200+i)
		want, err := s.Apply(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ApplyInto(dst, src); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(want) {
			t.Errorf("frame %d: ApplyInto differs from Apply", i)
		}
	}
	src := randFrame(80, 40, 9)
	if allocs := testing.AllocsPerRun(10, func() { s.ApplyInto(dst, src) }); allocs != 0 { //nolint:errcheck
		t.Errorf("ApplyInto allocates %.0f times, want 0", allocs)
	}
	for name, bad := range map[string]*frame.Frame{
		"nil":   nil,
		"wide":  frame.New(321, 160),
		"short": {W: 320, H: 160, Pix: make([]byte, 10)},
	} {
		if err := s.ApplyInto(bad, src); err == nil {
			t.Errorf("%s destination accepted", name)
		}
	}
}

// BenchmarkScale is one backfill frame of the gated benchmark's tiled_view
// workload, 80×40 up to the 320×160 panorama, taps mapped once as Assemble
// maps them once per segment.
func BenchmarkScale(b *testing.B) {
	src := randFrame(80, 40, 1)
	s, err := NewScaler(320, 160)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Apply(src); err != nil {
			b.Fatal(err)
		}
	}
}
