package codec

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sampleSegment is a hand-laid segment: a 16×8 header at quality 6 with
// half-pel motion, then three frames — a 200-byte I-frame body (a two-byte
// length) and P-frame bodies of two bytes and one byte. The offsets of its
// fields are in the comments.
func sampleSegment(t *testing.T) (*Bitstream, []byte) {
	t.Helper()
	bs := &Bitstream{
		Header: Header{W: 16, H: 8, Quality: 6, HalfPel: true},
		Frames: [][]byte{bytes.Repeat([]byte{0xA5}, 200), {1, 2}, {3}},
		Types:  []FrameType{IFrame, PFrame, PFrame},
	}
	seg, err := AppendSegment(nil, bs)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("EVS1"), // 0–3 magic
		0, 16, 0, 8, // 4–7 W, H
		6, flagSkipCBP|flagLastFlag|flagRangeCoded|flagHalfPel, // 8 quality, 9 flags
		3,          // 10 n
		0b110,      // 11 types: frames 1 and 2 are P
		0xC8, 0x01, // 12–13 len 200
	)
	want = append(want, bs.Frames[0]...) // 14–213
	want = append(want, 2, 1, 2, 1, 3)   // 214 len 2, body, 217 len 1, body
	if !bytes.Equal(seg, want) || len(seg) != bs.TotalBytes() {
		t.Fatalf("AppendSegment wrote %x (TotalBytes %d), want %x", seg, bs.TotalBytes(), want)
	}
	return bs, seg
}

func TestSegmentRoundTrip(t *testing.T) {
	bs, seg := sampleSegment(t)
	got, err := ParseSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, bs) {
		t.Fatalf("parsed %+v, want %+v", got, bs)
	}
	// Frame bodies alias the payload, capped at their own length.
	if &got.Frames[2][0] != &seg[len(seg)-1] {
		t.Error("frame body is a copy, not a sub-slice of the payload")
	}
	if c := cap(got.Frames[1]); c != 2 {
		t.Errorf("frame 1 has capacity %d, want its length 2", c)
	}
}

// TestParseSegmentRejects: the one segment parser refuses every bad header
// field, truncation at every length field (indeed at every byte), trailing
// bytes and a type bitmap that starts on a P-frame, and a payload from
// before the current format fails with ErrStaleFormat.
func TestParseSegmentRejects(t *testing.T) {
	_, good := sampleSegment(t)
	with := func(off int, b ...byte) []byte {
		out := append([]byte(nil), good...)
		copy(out[off:], b)
		return out
	}
	splice := func(off, drop int, b ...byte) []byte {
		out := append([]byte(nil), good[:off]...)
		out = append(out, b...)
		return append(out, good[off+drop:]...)
	}
	for _, c := range []struct {
		name  string
		data  []byte
		want  string
		stale bool
	}{
		{"bad magic", with(0, 'E', 'V', 'S', '9'), "segment magic", true},
		{"zero width", with(4, 0, 0), "dimensions 0x8", false},
		{"width off the block grid", with(4, 0, 12), "dimensions 12x8", false},
		{"zero height", with(6, 0, 0), "dimensions 16x0", false},
		{"height off the block grid", with(6, 0, 20), "dimensions 16x20", false},
		{"quality 0", with(8, 0), "quality 0", false},
		{"quality 65", with(8, 65), "quality 65", false},
		{"unknown flag", with(9, 0x20|flagSkipCBP|flagLastFlag|flagRangeCoded), "unknown bits", false},
		{"flag bit 4 clear", with(9, flagSkipCBP|flagLastFlag), "bit 4", true},
		{"flag bit 3 clear", with(9, flagSkipCBP|flagRangeCoded), "bit 3", true},
		{"flag bit 2 clear", with(9, flagLastFlag|flagRangeCoded), "bit 2", false},
		{"no frames", splice(10, 2, 0), "claims 0 frames", false},
		{"more frames than bytes", splice(10, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x07), "claims 2147483647 frames", false},
		{"count not minimal", splice(10, 1, 0x83, 0x00), "not minimal", false},
		{"count past 2^31", splice(10, 1, 0x80, 0x80, 0x80, 0x80, 0x08), "not minimal", false},
		{"frame 0 a P-frame", with(11, 0b111), "starts with a P-frame", false},
		{"type bits past the last frame", with(11, 0b1110), "past its last frame", false},
		{"length not minimal", splice(214, 1, 0x82, 0x00), "frame 1 length", false},
		{"length past the payload", with(217, 2), "frame 2 claims 2 bytes, 1 remain", false},
		{"length short of the payload", with(217, 0), "1 trailing bytes", false},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "1 trailing bytes", false},
	} {
		_, err := ParseSegment(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
		if errors.Is(err, ErrStaleFormat) != c.stale {
			t.Errorf("%s: errors.Is(err, ErrStaleFormat) = %v, want %v", c.name, !c.stale, c.stale)
		}
	}
	// Truncation anywhere: inside the header, at the count, the type
	// bitmap, every length field (the two-byte one included) and every
	// body.
	for n := 0; n < len(good); n++ {
		if _, err := ParseSegment(good[:n]); err == nil {
			t.Errorf("segment cut to %d of %d bytes accepted", n, len(good))
		}
	}
}

// TestParseSegmentBoundsAllocation: a header claiming 2^31−1 frames is
// refused before anything is allocated for them.
func TestParseSegmentBoundsAllocation(t *testing.T) {
	_, good := sampleSegment(t)
	huge := append(append([]byte(nil), good[:10]...), 0xFF, 0xFF, 0xFF, 0xFF, 0x07, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ParseSegment(huge); err == nil {
		t.Fatal("2^31−1 claimed frames accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
		t.Errorf("refusing a claimed count allocated %d bytes, want < 1 kB (the error only)", got)
	}
}

func TestAppendSegmentRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		mod  func(*Bitstream)
	}{
		{"no frames", func(b *Bitstream) { b.Frames, b.Types = nil, nil }},
		{"type count mismatch", func(b *Bitstream) { b.Types = b.Types[:2] }},
		{"unknown type", func(b *Bitstream) { b.Types[1] = 'X' }},
		{"P-frame first", func(b *Bitstream) { b.Types[0] = PFrame }},
		{"width off the block grid", func(b *Bitstream) { b.W = 12 }},
		{"width past u16", func(b *Bitstream) { b.W = 1 << 16 }},
		{"quality 0", func(b *Bitstream) { b.Quality = 0 }},
	} {
		bs, _ := sampleSegment(t)
		c.mod(bs)
		if _, err := AppendSegment(nil, bs); err == nil {
			t.Errorf("%s: AppendSegment accepted it", c.name)
		}
	}
}
