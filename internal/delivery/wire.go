package delivery

import (
	"encoding/binary"
	"fmt"

	"evr/internal/codec"
)

// tileMagic opens every tile payload on the wire. The version digit bumps
// if the layout ever changes.
const tileMagic = "EVT1"

// TilePayload is one encoded tile stream as it travels from server to
// client: the grid geometry it was cut from, its position, the quality
// rung it was encoded at, and the bitstream itself. A payload returned by
// UnmarshalTile aliases the bytes it was parsed from.
type TilePayload struct {
	Cols, Rows int
	Tile       int
	Rung       int
	Bits       *codec.Bitstream
}

// MarshalTile serializes a tile payload. Layout (big endian):
//
//	magic "EVT1" | cols u8 | rows u8 | tile u16 | rung u8 |
//	W u16 | H u16 | nFrames u32 | nFrames × (type u8 | len u32 | data)
//
// The format is canonical: UnmarshalTile(MarshalTile(p)) re-encodes to the
// identical bytes, which the fuzzer pins.
func MarshalTile(p *TilePayload) ([]byte, error) {
	if p == nil || p.Bits == nil {
		return nil, fmt.Errorf("delivery: nil tile payload")
	}
	if p.Cols < 1 || p.Cols > 255 || p.Rows < 1 || p.Rows > 255 {
		return nil, fmt.Errorf("delivery: grid %dx%d outside [1,255]", p.Cols, p.Rows)
	}
	if p.Tile < 0 || p.Tile >= p.Cols*p.Rows {
		return nil, fmt.Errorf("delivery: tile %d outside %dx%d grid", p.Tile, p.Cols, p.Rows)
	}
	if p.Rung < 0 || p.Rung > 255 {
		return nil, fmt.Errorf("delivery: rung %d outside [0,255]", p.Rung)
	}
	b := p.Bits
	if b.W < 0 || b.W > 0xFFFF || b.H < 0 || b.H > 0xFFFF {
		return nil, fmt.Errorf("delivery: tile dims %dx%d exceed u16", b.W, b.H)
	}
	if len(b.Frames) != len(b.Types) {
		return nil, fmt.Errorf("delivery: %d frames but %d types", len(b.Frames), len(b.Types))
	}
	for i, t := range b.Types {
		if t != codec.IFrame && t != codec.PFrame {
			return nil, fmt.Errorf("delivery: frame %d has unknown type %q", i, byte(t))
		}
	}
	size := len(tileMagic) + 5 + 4 + 4
	for _, f := range b.Frames {
		size += 5 + len(f)
	}
	out := make([]byte, 0, size)
	out = append(out, tileMagic...)
	out = append(out, byte(p.Cols), byte(p.Rows))
	out = binary.BigEndian.AppendUint16(out, uint16(p.Tile))
	out = append(out, byte(p.Rung))
	out = binary.BigEndian.AppendUint16(out, uint16(b.W))
	out = binary.BigEndian.AppendUint16(out, uint16(b.H))
	out = binary.BigEndian.AppendUint32(out, uint32(len(b.Frames)))
	for i, f := range b.Frames {
		out = append(out, byte(b.Types[i]))
		out = binary.BigEndian.AppendUint32(out, uint32(len(f)))
		out = append(out, f...)
	}
	return out, nil
}

// UnmarshalTile parses a tile payload, rejecting truncated input, trailing
// bytes, out-of-grid tile indices, and empty grids. It never preallocates
// from claimed counts, so hostile headers cannot force large allocations.
// The returned payload aliases data, as server.UnmarshalBitstream's
// bitstream aliases its payload: each frame body is a sub-slice of data, not
// a copy, so data must not be modified while the payload is in use.
func UnmarshalTile(data []byte) (*TilePayload, error) {
	if len(data) < len(tileMagic) {
		return nil, fmt.Errorf("delivery: tile payload too short for magic")
	}
	if string(data[:len(tileMagic)]) != tileMagic {
		return nil, fmt.Errorf("delivery: bad tile magic %q", data[:len(tileMagic)])
	}
	rest := data[len(tileMagic):]
	if len(rest) < 5+4+4 {
		return nil, fmt.Errorf("delivery: tile header truncated at %d bytes", len(rest))
	}
	p := &TilePayload{
		Cols: int(rest[0]),
		Rows: int(rest[1]),
		Tile: int(binary.BigEndian.Uint16(rest[2:4])),
		Rung: int(rest[4]),
	}
	if p.Cols == 0 || p.Rows == 0 {
		return nil, fmt.Errorf("delivery: zero tile grid %dx%d", p.Cols, p.Rows)
	}
	if p.Tile >= p.Cols*p.Rows {
		return nil, fmt.Errorf("delivery: tile %d outside %dx%d grid", p.Tile, p.Cols, p.Rows)
	}
	rest = rest[5:]
	bits := &codec.Bitstream{
		W: int(binary.BigEndian.Uint16(rest[0:2])),
		H: int(binary.BigEndian.Uint16(rest[2:4])),
	}
	n := binary.BigEndian.Uint32(rest[4:8])
	rest = rest[8:]
	for i := uint32(0); i < n; i++ {
		if len(rest) < 5 {
			return nil, fmt.Errorf("delivery: frame %d header truncated", i)
		}
		ft := codec.FrameType(rest[0])
		if ft != codec.IFrame && ft != codec.PFrame {
			return nil, fmt.Errorf("delivery: frame %d has unknown type %q", i, rest[0])
		}
		fl := binary.BigEndian.Uint32(rest[1:5])
		rest = rest[5:]
		if uint32(len(rest)) < fl {
			return nil, fmt.Errorf("delivery: frame %d claims %d bytes, %d remain", i, fl, len(rest))
		}
		bits.Frames = append(bits.Frames, rest[:fl:fl])
		bits.Types = append(bits.Types, ft)
		rest = rest[fl:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("delivery: %d trailing bytes after tile payload", len(rest))
	}
	p.Bits = bits
	return p, nil
}
