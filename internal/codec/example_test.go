package codec_test

import (
	"fmt"

	"evr/internal/codec"
	"evr/internal/frame"
)

// Encode and decode a short clip, inspecting the GOP structure.
func ExampleEncodeSequence() {
	var frames []*frame.Frame
	for i := 0; i < 6; i++ {
		f := frame.New(32, 32)
		for p := 0; p < len(f.Pix); p += 3 {
			f.Pix[p], f.Pix[p+1], f.Pix[p+2] = byte(40*i), 128, 200
		}
		frames = append(frames, f)
	}
	bs, err := codec.EncodeSequence(codec.Config{GOP: 3, Quality: 4, SearchRange: 1}, frames)
	if err != nil {
		panic(err)
	}
	decoded, err := codec.DecodeSequence(bs)
	if err != nil {
		panic(err)
	}
	var keyframes []int
	for i, t := range bs.Types {
		if t == codec.IFrame {
			keyframes = append(keyframes, i)
		}
	}
	fmt.Printf("frames: %d, keyframes at %v\n", len(decoded), keyframes)
	fmt.Printf("compressed below raw: %v\n", bs.TotalBytes() < 6*frames[0].Bytes())
	// Output:
	// frames: 6, keyframes at [0 3]
	// compressed below raw: true
}
