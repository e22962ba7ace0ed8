package codec

import (
	"math/rand"
	"runtime"
	"testing"

	"evr/internal/frame"
)

// segmentConfigs are the benchmark's ingest codec settings and the same with
// both optional tools on, so the third (RGB) raster is exercised too.
var segmentConfigs = []Config{
	{GOP: 30, Quality: 6, SearchRange: 2},
	{GOP: 30, Quality: 6, SearchRange: 2, ChromaCoding: true, HalfPel: true},
}

// garbage returns a w×h frame of random bytes.
func garbage(w, h int, seed int64) *frame.Frame {
	f := frame.New(w, h)
	rand.New(rand.NewSource(seed)).Read(f.Pix)
	return f
}

// TestDecodeSteadyStateAllocatesNothing: once a decoder holds rasters of the
// stream's size, decoding an I-frame or a P-frame allocates nothing — no
// raster, no block coder, no bit reader.
func TestDecodeSteadyStateAllocatesNothing(t *testing.T) {
	frames := rsFrames(t, 128, 64, 3)
	for _, cfg := range segmentConfigs {
		bs, err := EncodeSequence(cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		var dec Decoder
		for i := range bs.Frames {
			if _, err := dec.Decode(bs, i); err != nil {
				t.Fatal(err)
			}
		}
		for i := range bs.Frames[:2] {
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := dec.Decode(bs, i); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%+v: steady-state %c-frame Decode allocates %.0f times, want 0", cfg, bs.Types[i], allocs)
			}
		}
	}
}

// TestEncodeAllocations: once an encoder holds its two reconstruction
// rasters and luma planes, a P-frame at the benchmark's ingest geometry
// allocates its body and at most 1 kB besides — no raster, no luma plane,
// no block coder, no growing bit buffer.
func TestEncodeAllocations(t *testing.T) {
	frames := rsFrames(t, 320, 160, 4)
	enc, err := NewEncoder(segmentConfigs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[:3] {
		if _, _, err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, ft, err := enc.Encode(frames[2+i%2])
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if ft != PFrame {
			t.Fatalf("frame %d is %c, want a P-frame", 3+i, ft)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(body))+1024; got > limit {
			t.Errorf("steady-state P-frame Encode allocated %d B for a %d B body, want ≤ %d", got, len(body), limit)
		}
	}
}

// TestDecodeIgnoresRasterContents: rasters are reused without clearing, so a
// decoder whose rasters hold garbage — planted, or left by another stream of
// the same size — decodes every frame exactly as the reference decoder does.
func TestDecodeIgnoresRasterContents(t *testing.T) {
	const w, h = 128, 64
	frames := rsFrames(t, w, h, 4)
	for _, cfg := range segmentConfigs {
		bs, err := EncodeSequence(cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := refDecodeSequence(bs)
		if err != nil {
			t.Fatal(err)
		}
		other, err := EncodeSequence(cfg, []*frame.Frame{garbage(w, h, 1), garbage(w, h, 2)})
		if err != nil {
			t.Fatal(err)
		}
		planted := &Decoder{ref: garbage(w, h, 3), spare: garbage(w, h, 4), rgb: garbage(w, h, 5)}
		reused := &Decoder{}
		for i := range other.Frames {
			if _, err := reused.Decode(other, i); err != nil {
				t.Fatal(err)
			}
		}
		for name, dec := range map[string]*Decoder{"planted": planted, "reused": reused} {
			for i := range bs.Frames {
				got, err := dec.Decode(bs, i)
				if err != nil {
					t.Fatalf("%s %+v frame %d: %v", name, cfg, i, err)
				}
				if !got.Equal(want[i]) {
					t.Errorf("%s %+v frame %d differs from the reference decoder's", name, cfg, i)
				}
			}
		}
	}
}

// BenchmarkDecodeSegment decodes one segment of the benchmark's playback
// video at its geometry and codec settings — RS, 320×160, 30 frames — with
// one decoder reused across segments, as a player's stream reader does.
func BenchmarkDecodeSegment(b *testing.B) {
	bs, err := EncodeSequence(segmentConfigs[0], rsFrames(b, 320, 160, 30))
	if err != nil {
		b.Fatal(err)
	}
	var dec Decoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := range bs.Frames {
			if _, err := dec.Decode(bs, f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEncodeSegment encodes one segment of the benchmark's playback
// video at its geometry and ingest codec settings — RS, 320×160, 30 frames,
// GOP 30, quality 6, search range 2 — with one encoder per segment, as
// ingest builds each segment.
func BenchmarkEncodeSegment(b *testing.B) {
	frames := rsFrames(b, 320, 160, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := NewEncoder(segmentConfigs[0])
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range frames {
			if _, _, err := enc.Encode(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}
