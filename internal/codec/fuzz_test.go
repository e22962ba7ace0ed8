package codec

import (
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"evr/internal/display"
	"evr/internal/frame"
)

// TestDecodeNeverPanicsOnGarbage feeds random byte soup to the decoder:
// every input must produce a frame or an error, never a panic or a hang.
func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	prop := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		dec := NewDecoder()
		_, _ = dec.Decode(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(80))}); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanicsOnMutatedValidStreams corrupts real bitstreams —
// bit flips, truncations, extensions — the nastier fuzz surface because
// headers parse and the block loop runs.
func TestDecodeNeverPanicsOnMutatedValidStreams(t *testing.T) {
	src := noisyGradient(32, 32, 90)
	enc, err := NewEncoder(Config{GOP: 2, Quality: 4, SearchRange: 2})
	if err != nil {
		t.Fatal(err)
	}
	var streams [][]byte
	for i := 0; i < 3; i++ {
		data, _, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, data)
	}
	rng := rand.New(rand.NewSource(81))
	mutate := func(data []byte) []byte {
		out := append([]byte(nil), data...)
		switch rng.Intn(4) {
		case 0: // bit flips
			for k := 0; k < 1+rng.Intn(8); k++ {
				out[rng.Intn(len(out))] ^= 1 << uint(rng.Intn(8))
			}
		case 1: // truncation
			out = out[:rng.Intn(len(out))]
		case 2: // extension with junk
			junk := make([]byte, rng.Intn(64))
			rng.Read(junk)
			out = append(out, junk...)
		case 3: // header scramble
			for k := 0; k < 6 && k < len(out); k++ {
				out[k] = byte(rng.Intn(256))
			}
		}
		return out
	}
	for trial := 0; trial < 400; trial++ {
		data := mutate(streams[rng.Intn(len(streams))])
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked on mutated stream (trial %d): %v", trial, r)
				}
			}()
			dec := NewDecoder()
			// Feed a valid I-frame first so P-frames have a reference.
			dec.Decode(streams[0])
			dec.Decode(data)
		}()
	}
}

// TestDecoderBoundedWorkOnAdversarialInput guards against unbounded work
// and memory: a 7-byte payload whose header claims a 65528×65528 frame
// (12.9 GB of pixels) must fail before anything is allocated for it.
func TestDecoderBoundedWorkOnAdversarialInput(t *testing.T) {
	w := &bitWriter{}
	w.writeBits(uint64(IFrame), 8)
	w.writeBits(65528, 16)
	w.writeBits(65528, 16)
	w.writeBits(4, 8)
	w.writeBits(flagSkipCBP|flagLastFlag, 8)
	payload := w.bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewDecoder().Decode(payload)
	_, seqErr := DecodeSequence(&Bitstream{W: 65528, H: 65528, Frames: [][]byte{payload}, Types: []FrameType{IFrame}})
	runtime.ReadMemStats(&after)
	if err == nil || seqErr == nil {
		t.Errorf("giant empty frame accepted (Decode: %v, DecodeSequence: %v)", err, seqErr)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting a 7-byte payload allocated %d bytes, want < 1 MB", got)
	}
}

// zeroLevelIFrame is a 16×8 I-frame whose payload is 24 one-bits: six
// lists UE(0) SE(0) last of 3 bits each. A zero level is not a coefficient,
// so both decoders must refuse it; were it accepted, 15 bits would not
// bound an I-block from below.
const zeroLevelIFrame = "4900100008040cffffff"

// TestIntraBlockBoundIsTight: the smallest I-block is three lists of one
// coefficient, UE(0) SE(±1) last, 15 bits. A 64×8 I-frame of eight such
// blocks is exactly 15 payload bytes and decodes; a byte less is refused
// by the header bound, before the decoder allocates a raster. Lists of a
// zero level, which would be shorter, are refused by both decoders.
func TestIntraBlockBoundIsTight(t *testing.T) {
	w := &bitWriter{}
	w.writeBits(uint64(IFrame), 8)
	w.writeBits(64, 16)
	w.writeBits(8, 16)
	w.writeBits(4, 8)
	w.writeBits(flagSkipCBP|flagLastFlag, 8)
	for k := 0; k < 8*3; k++ {
		w.writeUE(0)
		w.writeSE(1)
		w.writeBits(1, 1)
	}
	data := w.bytes()
	if len(data) != 7+15 {
		t.Fatalf("crafted frame is %d bytes, want 22", len(data))
	}
	if _, err := NewDecoder().Decode(data); err != nil {
		t.Errorf("smallest 64×8 I-frame: %v", err)
	}
	dec := NewDecoder()
	if _, err := dec.Decode(data[:len(data)-1]); !errors.Is(err, errBitstream) {
		t.Errorf("one byte short: err = %v, want errBitstream", err)
	}
	if dec.spare != nil {
		t.Error("one byte short: the decoder allocated a raster before refusing the header")
	}

	zero, err := hex.DecodeString(zeroLevelIFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder().Decode(zero); !errors.Is(err, errBitstream) {
		t.Errorf("lists of a zero level: err = %v, want errBitstream", err)
	}
	if _, err := (&refDecoder{}).decode(zero); !errors.Is(err, errBitstream) {
		t.Errorf("lists of a zero level, reference decoder: err = %v, want errBitstream", err)
	}
}

func TestDecodeSequenceChecksDeclaredDimensions(t *testing.T) {
	bs, err := EncodeSequence(Config{GOP: 2, Quality: 4, SearchRange: 1}, []*frame.Frame{noisyGradient(16, 16, 82), noisyGradient(16, 16, 83)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSequence(bs); err != nil {
		t.Fatal(err)
	}
	bs.W = 32
	if _, err := DecodeSequence(bs); err == nil {
		t.Error("16×16 frames accepted in a bitstream declaring 32×16")
	}
}

// FuzzDecode feeds the payload to a decoder holding a 16×16 reference (so
// P-frame headers get as far as the block loop): it must return a frame or
// an error — no panic, no frame larger than the payload's bits can pay
// for, and the same answer as the reference decoder. The payload then
// doubles as picture content and encoder settings for round trips:
// decode∘encode must agree with the reference decoder frame by frame and
// stay within the quantizer's error bound. The same decoder, its rasters
// reused, decodes everything: the fuzzed frame, then a 16×8 stream, then an
// 8×16 stream with chroma coding and half-pel motion toggled — two
// dimension changes and a block-coder change mid-decoder.
func FuzzDecode(f *testing.F) {
	textured := noisyGradient(16, 16, 84)
	for _, cfg := range []Config{
		{GOP: 4, Quality: 4, SearchRange: 2},
		{GOP: 4, Quality: 9, SearchRange: 1, ChromaCoding: true, HalfPel: true},
	} {
		// I, a panned P, then a skip-heavy P (the same picture again).
		bs, err := EncodeSequence(cfg, []*frame.Frame{textured, shifted(textured, 1, 1), shifted(textured, 1, 1)})
		if err != nil {
			f.Fatal(err)
		}
		for _, data := range bs.Frames {
			f.Add(data)
		}
	}
	// A flat mid-gray I-frame: every list is the escape.
	gray := frame.New(16, 16)
	for i := range gray.Pix {
		gray.Pix[i] = 128
	}
	flat, err := EncodeSequence(Config{GOP: 1, Quality: 4}, []*frame.Frame{gray})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(flat.Frames[0])
	zero, err := hex.DecodeString(zeroLevelIFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(zero)
	keyEnc, _ := NewEncoder(Config{GOP: 1, Quality: 4})
	key, _, err := keyEnc.Encode(textured)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, ref := NewDecoder(), &refDecoder{}
		dec.Decode(key)
		ref.decode(key)
		got, err := dec.Decode(data)
		want, refErr := ref.decode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder: %v, reference decoder: %v", err, refErr)
		}
		if err == nil {
			if blocks := got.W * got.H / (blockSize * blockSize); blocks > 8*len(data) {
				t.Fatalf("%d-byte payload decoded to %d blocks", len(data), blocks)
			}
			if !got.Equal(want) {
				t.Fatal("decoded pixels differ from the reference decoder's")
			}
		}
		if len(data) < 4 {
			return
		}
		cfg := Config{GOP: 2, Quality: 1 + int(data[0])%64, SearchRange: int(data[1]) % 4, ChromaCoding: data[2]&1 != 0, HalfPel: data[2]&2 != 0}
		for _, dims := range [][2]int{{16, 8}, {8, 16}} {
			var frames [3]*frame.Frame
			for i := range frames {
				frames[i] = frame.New(dims[0], dims[1])
				for j := range frames[i].Pix {
					frames[i].Pix[j] = data[(j+i*len(data)/3)%len(data)]
				}
			}
			fuzzRoundTrip(t, dec, cfg, frames[:])
			cfg.ChromaCoding, cfg.HalfPel = !cfg.ChromaCoding, !cfg.HalfPel
		}
	})
}

// fuzzRoundTrip encodes frames and checks each frame dec decodes against the
// reference decoder and against the quantizer's error bound: the DCT is
// orthonormal, so a block's squared reconstruction error is at most the
// squared half-steps of its 64 coefficients, plus half a level of pixel
// rounding per sample (clamping to [0, 255] only moves a sample toward
// its source). The bound holds in the space the prediction loop runs in,
// YCbCr under ChromaCoding.
func fuzzRoundTrip(t *testing.T, dec *Decoder, cfg Config, frames []*frame.Frame) {
	bs, err := EncodeSequence(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := refDecodeSequence(bs.Frames)
	if err != nil {
		t.Fatalf("reference decoder rejects the encoder's stream: %v", err)
	}
	c := newBlockCoder(cfg.Quality, cfg.ChromaCoding, cfg.HalfPel)
	for i, data := range bs.Frames {
		got, err := dec.Decode(data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !got.Equal(want[i]) {
			t.Fatalf("frame %d: decoded pixels differ from the reference decoder's", i)
		}
		src := frames[i]
		if cfg.ChromaCoding {
			src = display.ToYCbCr(src)
		}
		for ch := 0; ch < 3; ch++ {
			var coeffErr float64
			for _, step := range c.steps[ch] {
				coeffErr += step * step / 4
			}
			bound := math.Pow(math.Sqrt(coeffErr)+math.Sqrt(blockLen*0.25), 2) + 1e-6
			for by := 0; by < src.H; by += blockSize {
				for bx := 0; bx < src.W; bx += blockSize {
					var a, b pixBlock
					loadBlock(src, bx, by, &a)
					loadBlock(dec.ref, bx, by, &b)
					var sq float64
					for k := ch; k < blockBytes; k += 3 {
						d := float64(a[k]) - float64(b[k])
						sq += d * d
					}
					if sq > bound {
						t.Fatalf("%+v frame %d block (%d,%d) channel %d: squared error %.1f exceeds the quantizer bound %.1f",
							cfg, i, bx, by, ch, sq, bound)
					}
				}
			}
		}
	}
}
