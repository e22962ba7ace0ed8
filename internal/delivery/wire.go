package delivery

import (
	"encoding/binary"
	"fmt"

	"evr/internal/codec"
)

// tileMagic opens every tile payload on the wire. The version digit bumps
// if the layout ever changes; staleTileMagic is the layout before the
// segment container, which carried a header per frame.
const (
	tileMagic      = "EVT2"
	staleTileMagic = "EVT1"
	tilePrefix     = len(tileMagic) + 5
)

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

// MarshalTile serializes a tile payload: a 9-byte envelope, then the
// tile's bitstream as one codec segment (codec.AppendSegment).
//
//	"EVT2" | cols u8 | rows u8 | tile u16 (big endian) | rung u8 | segment
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
	out := make([]byte, 0, tilePrefix+p.Bits.TotalBytes())
	out = append(out, tileMagic...)
	out = append(out, byte(p.Cols), byte(p.Rows))
	out = binary.BigEndian.AppendUint16(out, uint16(p.Tile))
	out = append(out, byte(p.Rung))
	out, err := codec.AppendSegment(out, p.Bits)
	if err != nil {
		return nil, fmt.Errorf("delivery: tile %d: %w", p.Tile, err)
	}
	return out, nil
}

// UnmarshalTile parses a tile payload, rejecting a bad envelope — an
// empty grid or an out-of-grid tile index — and whatever
// codec.ParseSegment rejects in the segment behind it. An "EVT1" payload,
// from a store written before the segment container, fails with
// codec.ErrStaleFormat. The returned payload aliases data, as the segment
// does: data must not be modified while the payload is in use.
func UnmarshalTile(data []byte) (*TilePayload, error) {
	if len(data) < tilePrefix {
		return nil, fmt.Errorf("delivery: tile envelope truncated at %d bytes", len(data))
	}
	switch string(data[:len(tileMagic)]) {
	case tileMagic:
	case staleTileMagic:
		return nil, fmt.Errorf("delivery: %s tile payload: %w", staleTileMagic, codec.ErrStaleFormat)
	default:
		return nil, fmt.Errorf("delivery: bad tile magic %q", data[:len(tileMagic)])
	}
	rest := data[len(tileMagic):]
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
	bits, err := codec.ParseSegment(data[tilePrefix:])
	if err != nil {
		return nil, fmt.Errorf("delivery: tile %d: %w", p.Tile, err)
	}
	p.Bits = bits
	return p, nil
}
