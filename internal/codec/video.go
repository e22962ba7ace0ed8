package codec

import (
	"fmt"

	"evr/internal/frame"
)

// Bitstream is an encoded frame sequence: the unit the server stores and
// streams. Frames are independently addressable but P-frames depend on
// their predecessors back to the nearest I-frame.
type Bitstream struct {
	W, H   int
	Frames [][]byte
	Types  []FrameType
}

// TotalBytes returns the compressed payload size.
func (b *Bitstream) TotalBytes() int {
	var n int
	for _, f := range b.Frames {
		n += len(f)
	}
	return n
}

// KeyframeIndices returns the positions of I-frames — the points a decoder
// may start from.
func (b *Bitstream) KeyframeIndices() []int {
	var idx []int
	for i, t := range b.Types {
		if t == IFrame {
			idx = append(idx, i)
		}
	}
	return idx
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
			bs.W, bs.H = f.W, f.H
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

// DecodeSequence decompresses a whole bitstream. Every frame must have the
// dimensions the bitstream declares.
func DecodeSequence(bs *Bitstream) ([]*frame.Frame, error) {
	dec := NewDecoder()
	out := make([]*frame.Frame, 0, len(bs.Frames))
	for i, data := range bs.Frames {
		f, err := dec.Decode(data)
		if err != nil {
			return nil, err
		}
		if f.W != bs.W || f.H != bs.H {
			return nil, fmt.Errorf("codec: frame %d is %dx%d in a %dx%d bitstream", i, f.W, f.H, bs.W, bs.H)
		}
		out = append(out, f)
	}
	return out, nil
}
