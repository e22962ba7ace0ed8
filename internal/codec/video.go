package codec

import (
	"encoding/binary"
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

// CheckHeaders checks what can be known of a stream without decoding it,
// five bytes per frame: the first frame is an I-frame, so a decoder can
// start there, and every frame header declares the bitstream's dimensions.
// A stream that passes may still fail to decode past a header.
func (b *Bitstream) CheckHeaders() error {
	for i, data := range b.Frames {
		if len(data) < 5 {
			return fmt.Errorf("codec: frame %d header truncated at %d bytes", i, len(data))
		}
		if i == 0 && FrameType(data[0]) != IFrame {
			return fmt.Errorf("codec: stream starts with frame type %q, not an I-frame", data[0])
		}
		// The header's W:16 and H:16 follow the type byte, byte-aligned.
		if w, h := int(binary.BigEndian.Uint16(data[1:3])), int(binary.BigEndian.Uint16(data[3:5])); w != b.W || h != b.H {
			return fmt.Errorf("codec: frame %d header declares %dx%d in a %dx%d bitstream", i, w, h, b.W, b.H)
		}
	}
	return nil
}

// DecodeSequence decompresses a whole bitstream into frames of its own.
// Every frame must have the dimensions the bitstream declares.
func DecodeSequence(bs *Bitstream) ([]*frame.Frame, error) {
	var dec Decoder
	out := make([]*frame.Frame, 0, len(bs.Frames))
	for i, data := range bs.Frames {
		f, err := dec.Decode(data)
		if err != nil {
			return nil, err
		}
		if f.W != bs.W || f.H != bs.H {
			return nil, fmt.Errorf("codec: frame %d is %dx%d in a %dx%d bitstream", i, f.W, f.H, bs.W, bs.H)
		}
		out = append(out, f.Clone())
	}
	return out, nil
}
