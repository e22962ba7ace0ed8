package delivery

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"evr/internal/codec"
)

func sampleTile(t *testing.T) *TilePayload {
	t.Helper()
	return &TilePayload{
		Cols: 4, Rows: 2, Tile: 5, Rung: 1,
		Bits: &codec.Bitstream{
			Header: codec.Header{W: 24, H: 16, Quality: 6},
			Frames: [][]byte{{1, 2, 3}, {}, {9}},
			Types:  []codec.FrameType{codec.IFrame, codec.PFrame, codec.PFrame},
		},
	}
}

func TestTileRoundTrip(t *testing.T) {
	p := sampleTile(t)
	data, err := MarshalTile(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	q, err := UnmarshalTile(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if q.Cols != p.Cols || q.Rows != p.Rows || q.Tile != p.Tile || q.Rung != p.Rung {
		t.Fatalf("header mismatch: %+v vs %+v", q, p)
	}
	if q.Bits.Header != p.Bits.Header || len(q.Bits.Frames) != len(p.Bits.Frames) {
		t.Fatalf("bitstream mismatch")
	}
	for i := range p.Bits.Frames {
		if !bytes.Equal(q.Bits.Frames[i], p.Bits.Frames[i]) || q.Bits.Types[i] != p.Bits.Types[i] {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	data2, err := MarshalTile(q)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("re-marshal not byte-identical")
	}
	// Frame bodies alias the payload, capped at their own length: a cached
	// tile holds one copy of its bytes, and appending to a frame cannot
	// overwrite the next.
	data[len(data)-1] = 7
	if q.Bits.Frames[2][0] != 7 {
		t.Error("frame body is a copy, not a sub-slice of the payload")
	}
	if c := cap(q.Bits.Frames[0]); c != len(p.Bits.Frames[0]) {
		t.Errorf("frame 0 has capacity %d, want its length %d", c, len(p.Bits.Frames[0]))
	}
}

func TestMarshalTileRejects(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*TilePayload)
	}{
		{"nil bits", func(p *TilePayload) { p.Bits = nil }},
		{"zero grid", func(p *TilePayload) { p.Cols = 0 }},
		{"grid too big", func(p *TilePayload) { p.Cols = 256 }},
		{"tile out of grid", func(p *TilePayload) { p.Tile = 8 }},
		{"negative tile", func(p *TilePayload) { p.Tile = -1 }},
		{"rung out of range", func(p *TilePayload) { p.Rung = 256 }},
		{"oversize dims", func(p *TilePayload) { p.Bits.W = 1 << 16 }},
		{"type count mismatch", func(p *TilePayload) { p.Bits.Types = p.Bits.Types[:1] }},
		{"unknown frame type", func(p *TilePayload) { p.Bits.Types[1] = 'X' }},
		{"P-frame first", func(p *TilePayload) { p.Bits.Types[0] = codec.PFrame }},
		{"dims off the block grid", func(p *TilePayload) { p.Bits.H = 12 }},
	}
	for _, tc := range cases {
		p := sampleTile(t)
		tc.mod(p)
		if _, err := MarshalTile(p); err == nil {
			t.Errorf("%s: marshal accepted bad payload", tc.name)
		}
	}
}

func TestUnmarshalTileRejects(t *testing.T) {
	good, err := MarshalTile(sampleTile(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short magic", []byte("EV")},
		{"bad magic", append([]byte("EVT9"), good[4:]...)},
		{"truncated header", good[:8]},
		{"truncated frame", good[:len(good)-1]},
		{"trailing bytes", append(append([]byte{}, good...), 0)},
		{"bare segment", good[9:]},
	}
	for _, tc := range cases {
		if _, err := UnmarshalTile(tc.data); err == nil {
			t.Errorf("%s: unmarshal accepted bad payload", tc.name)
		}
	}

	// A tile from a store written before the segment container: tells the
	// operator to re-ingest.
	old, _ := hex.DecodeString(preSegmentTile)
	if _, err := UnmarshalTile(old); !errors.Is(err, codec.ErrStaleFormat) || !strings.Contains(err.Error(), "re-ingest the video") {
		t.Errorf("EVT1 tile: err = %v, want codec.ErrStaleFormat naming \"re-ingest the video\"", err)
	}

	// Tile index outside the claimed grid.
	bad := append([]byte{}, good...)
	bad[4], bad[5] = 1, 1 // 1×1 grid, tile 5 from the sample now out of range
	if _, err := UnmarshalTile(bad); err == nil {
		t.Error("out-of-grid tile accepted")
	}
	// Zero grid.
	bad = append([]byte{}, good...)
	bad[4], bad[5] = 0, 0
	if _, err := UnmarshalTile(bad); err == nil {
		t.Error("zero grid accepted")
	}
}

// preSegmentTile is RS at 16×8 (GOP 2, quality 6, search range 1) as tile
// 5 of a 4×2 grid at rung 1, in the "EVT1" layout that carried a 7-byte
// header per frame.
const preSegmentTile = "4556543104020005010010000800000002490000002c4900100008060c85c24a04cc256171501530958740bd84ac2e125026612b0a8a407586b09586d4042c3584a850000000095000100008060cb570"

// FuzzUnmarshalTile pins the wire format's canonical property: any payload
// that parses must re-marshal to the identical bytes.
func FuzzUnmarshalTile(f *testing.F) {
	p := &TilePayload{
		Cols: 2, Rows: 2, Tile: 3, Rung: 0,
		Bits: &codec.Bitstream{Header: codec.Header{W: 8, H: 8, Quality: 4},
			Frames: [][]byte{{0xAA}},
			Types:  []codec.FrameType{codec.IFrame}},
	}
	seed, err := MarshalTile(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("EVT1"))
	f.Add([]byte{})
	old, _ := hex.DecodeString(preSegmentTile)
	f.Add(old)
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := UnmarshalTile(data)
		if err != nil {
			return
		}
		out, err := MarshalTile(q)
		if err != nil {
			t.Fatalf("parsed payload failed to marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip not byte-identical: %d in, %d out", len(data), len(out))
		}
	})
}
