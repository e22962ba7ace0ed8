package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"evr/internal/frame"
)

// segmentMagic opens every segment. The digit bumps if the container's
// layout ever changes.
const segmentMagic = "EVS1"

// segmentHeaderBytes is the fixed part of a segment header: magic, W, H,
// quality and flags.
const segmentHeaderBytes = len(segmentMagic) + 2 + 2 + 1 + 1

// Header is what a segment declares once for all of its frames: their
// dimensions, the quantizer scale and the coding tools they use.
type Header struct {
	W, H    int // positive multiples of the block size
	Quality int // quantizer scale, 1–64
	// ChromaCoding and HalfPel are the Config tools of the same names.
	ChromaCoding, HalfPel bool
}

// check reports whether a segment can carry h.
func (h Header) check() error {
	if h.W <= 0 || h.H <= 0 || h.W%blockSize != 0 || h.H%blockSize != 0 || h.W > math.MaxUint16 || h.H > math.MaxUint16 {
		return fmt.Errorf("codec: segment dimensions %dx%d are not positive multiples of %d below 2^16", h.W, h.H, blockSize)
	}
	if h.Quality < 1 || h.Quality > 64 {
		return fmt.Errorf("codec: segment quality %d out of [1, 64]", h.Quality)
	}
	return nil
}

// flags is h's flags byte; every segment sets the two required syntax bits.
func (h Header) flags() byte {
	f := byte(flagSkipCBP | flagLastFlag)
	if h.ChromaCoding {
		f |= flagChroma
	}
	if h.HalfPel {
		f |= flagHalfPel
	}
	return f
}

// Bitstream is one encoded segment: the unit the server stores and streams
// and the client decodes. Its header is declared once; each frame is only
// its body, the block syntax of the package comment. Frames are
// independently addressable but P-frames depend on their predecessors back
// to the nearest I-frame.
type Bitstream struct {
	Header
	Frames [][]byte
	Types  []FrameType
}

// check reports whether b is a segment ParseSegment would accept.
func (b *Bitstream) check() error {
	if err := b.Header.check(); err != nil {
		return err
	}
	if len(b.Frames) == 0 {
		return errors.New("codec: a segment holds at least one frame")
	}
	if len(b.Types) != len(b.Frames) {
		return fmt.Errorf("codec: %d frames but %d types", len(b.Frames), len(b.Types))
	}
	for i, t := range b.Types {
		if t != IFrame && t != PFrame {
			return fmt.Errorf("codec: frame %d has unknown type %q", i, byte(t))
		}
	}
	if b.Types[0] != IFrame {
		return errors.New("codec: segment starts with a P-frame")
	}
	return nil
}

// TotalBytes returns the segment's coded size, header included: the bytes
// AppendSegment writes for it.
func (b *Bitstream) TotalBytes() int {
	n := segmentHeaderBytes + uvarintLen(len(b.Frames)) + (len(b.Frames)+7)/8
	for _, f := range b.Frames {
		n += uvarintLen(len(f)) + len(f)
	}
	return n
}

func uvarintLen(v int) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], uint64(v))
}

// AppendSegment appends b as a segment (the container of the package
// comment) to dst. It refuses a bitstream ParseSegment would refuse, so
// every segment it writes parses back to b.
func AppendSegment(dst []byte, b *Bitstream) ([]byte, error) {
	if err := b.check(); err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, b.TotalBytes())
	dst = append(dst, segmentMagic...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(b.W))
	dst = binary.BigEndian.AppendUint16(dst, uint16(b.H))
	dst = append(dst, byte(b.Quality), b.flags())
	dst = binary.AppendUvarint(dst, uint64(len(b.Frames)))
	types := len(dst)
	dst = append(dst, make([]byte, (len(b.Frames)+7)/8)...)
	for i, t := range b.Types {
		if t == PFrame {
			dst[types+i/8] |= 1 << (i % 8)
		}
	}
	for _, f := range b.Frames {
		dst = binary.AppendUvarint(dst, uint64(len(f)))
		dst = append(dst, f...)
	}
	return dst, nil
}

// ParseSegment parses a segment written by AppendSegment. The header is
// checked here, once for every frame: the dimensions are positive
// multiples of the block size, the quality is in [1, 64], the flags are
// known and carry both required syntax bits, frame 0 is an I-frame, and
// the length fields add up to the payload exactly. A payload from before
// the segment container or the last-flag syntax fails with ErrStaleFormat.
// What is left for Decode are the per-frame checks a body needs.
//
// The bitstream aliases data: each frame body is a sub-slice of data, its
// capacity cut at its length, so data must not be modified while the
// bitstream is in use. Nothing is preallocated from a claimed count.
func ParseSegment(data []byte) (*Bitstream, error) {
	if len(data) < segmentHeaderBytes {
		if len(data) >= len(segmentMagic) && string(data[:len(segmentMagic)]) != segmentMagic {
			return nil, staleMagic(data)
		}
		return nil, fmt.Errorf("codec: segment header truncated at %d bytes", len(data))
	}
	if string(data[:len(segmentMagic)]) != segmentMagic {
		return nil, staleMagic(data)
	}
	flags := data[9]
	if flags&^flagsKnown != 0 {
		return nil, fmt.Errorf("codec: segment flags %#02x set unknown bits", flags)
	}
	if flags&flagLastFlag == 0 {
		return nil, fmt.Errorf("%w (flag bit 3, last-flag coefficient lists, not set)", ErrStaleFormat)
	}
	if flags&flagSkipCBP == 0 {
		return nil, fmt.Errorf("codec: segment flag bit 2 (skip/CBP block syntax) not set")
	}
	b := &Bitstream{Header: Header{
		W:            int(binary.BigEndian.Uint16(data[4:6])),
		H:            int(binary.BigEndian.Uint16(data[6:8])),
		Quality:      int(data[8]),
		ChromaCoding: flags&flagChroma != 0,
		HalfPel:      flags&flagHalfPel != 0,
	}}
	if err := b.Header.check(); err != nil {
		return nil, err
	}
	rest := data[segmentHeaderBytes:]
	n, k := uvarint(rest)
	if k == 0 {
		return nil, errors.New("codec: segment frame count truncated or not minimal")
	}
	rest = rest[k:]
	// Every frame spends at least its length byte.
	if n == 0 || n > len(rest) {
		return nil, fmt.Errorf("codec: segment claims %d frames in %d bytes", n, len(rest))
	}
	types := rest[:(n+7)/8]
	rest = rest[len(types):]
	if n%8 != 0 && types[len(types)-1]>>(n%8) != 0 {
		return nil, errors.New("codec: segment sets type bits past its last frame")
	}
	if types[0]&1 != 0 {
		return nil, errors.New("codec: segment starts with a P-frame")
	}
	for i := 0; i < n; i++ {
		l, k := uvarint(rest)
		if k == 0 {
			return nil, fmt.Errorf("codec: frame %d length truncated or not minimal", i)
		}
		rest = rest[k:]
		if l > len(rest) {
			return nil, fmt.Errorf("codec: frame %d claims %d bytes, %d remain", i, l, len(rest))
		}
		ft := IFrame
		if types[i/8]>>(i%8)&1 != 0 {
			ft = PFrame
		}
		b.Frames = append(b.Frames, rest[:l:l])
		b.Types = append(b.Types, ft)
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes after the segment's last frame", len(rest))
	}
	return b, nil
}

// staleMagic is the error for a payload that does not open with the
// segment magic: a store written before the segment container.
func staleMagic(data []byte) error {
	return fmt.Errorf("%w (payload opens with %q, not the segment magic %q)", ErrStaleFormat, data[:len(segmentMagic)], segmentMagic)
}

// uvarint reads a minimally encoded uvarint below 2^31 from the front of b
// and returns it and its length, or a length of 0 if there is none. An
// encoding longer than one byte is minimal exactly when its last byte is
// not zero.
func uvarint(b []byte) (v, n int) {
	u, n := binary.Uvarint(b)
	if n <= 0 || u > math.MaxInt32 || n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return int(u), n
}

// EncodeSequence compresses frames in display order with a fresh encoder.
func EncodeSequence(cfg Config, frames []*frame.Frame) (*Bitstream, error) {
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	bs := &Bitstream{}
	for i, f := range frames {
		if i == 0 {
			bs.Header = Header{W: f.W, H: f.H, Quality: cfg.Quality, ChromaCoding: cfg.ChromaCoding, HalfPel: cfg.HalfPel}
		}
		data, ft, err := enc.Encode(f)
		if err != nil {
			return nil, err
		}
		bs.Frames = append(bs.Frames, data)
		bs.Types = append(bs.Types, ft)
	}
	return bs, nil
}

// DecodeSequence decompresses a whole bitstream into frames of its own.
func DecodeSequence(bs *Bitstream) ([]*frame.Frame, error) {
	var dec Decoder
	out := make([]*frame.Frame, 0, len(bs.Frames))
	for i := range bs.Frames {
		f, err := dec.Decode(bs, i)
		if err != nil {
			return nil, err
		}
		out = append(out, f.Clone())
	}
	return out, nil
}
