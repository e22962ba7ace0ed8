package codec

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"evr/internal/display"
	"evr/internal/frame"
)

// decodeAll parses data as a segment and decodes every frame of it with
// dec, stopping at the first error.
func decodeAll(dec *Decoder, data []byte) error {
	bs, err := ParseSegment(data)
	if err != nil {
		return err
	}
	for i := range bs.Frames {
		if _, err := dec.Decode(bs, i); err != nil {
			return err
		}
	}
	return nil
}

// TestDecodeNeverPanicsOnGarbage feeds random byte soup to the parser and
// the decoder, as a segment and as a frame body under a valid header:
// every input must produce frames or an error, never a panic or a hang.
func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	prop := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_ = decodeAll(NewDecoder(), data)
		_ = decodeAll(NewDecoder(), append([]byte(segmentMagic), data...))
		bs := &Bitstream{Header: Header{W: 16, H: 16, Quality: 4}, Frames: [][]byte{data}, Types: []FrameType{IFrame}}
		_, _ = NewDecoder().Decode(bs, 0)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(80))}); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanicsOnMutatedValidStreams corrupts real segments — bit
// flips, truncations, extensions, header scrambles — the nastier fuzz
// surface because many still parse and the block loop runs.
func TestDecodeNeverPanicsOnMutatedValidStreams(t *testing.T) {
	src := noisyGradient(32, 32, 90)
	var segments [][]byte
	for _, cfg := range []Config{{GOP: 2, Quality: 4, SearchRange: 2}, {GOP: 3, Quality: 9, SearchRange: 1, ChromaCoding: true, HalfPel: true}} {
		bs, err := EncodeSequence(cfg, []*frame.Frame{src, shifted(src, 1, 0), shifted(src, 2, 1)})
		if err != nil {
			t.Fatal(err)
		}
		seg, err := AppendSegment(nil, bs)
		if err != nil {
			t.Fatal(err)
		}
		segments = append(segments, seg)
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
		case 3: // header scramble, magic kept
			for k := len(segmentMagic); k < segmentHeaderBytes+2; k++ {
				out[k] = byte(rng.Intn(256))
			}
		}
		return out
	}
	for trial := 0; trial < 400; trial++ {
		data := mutate(segments[rng.Intn(len(segments))])
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked on mutated segment (trial %d): %v", trial, r)
				}
			}()
			decodeAll(NewDecoder(), data)
		}()
	}
}

// TestDecoderBoundedWorkOnAdversarialInput guards against unbounded work
// and memory: a 13-byte segment whose header claims a 65528×65528 frame
// (12.9 GB of pixels) parses, but its frame must fail before anything is
// allocated for it.
func TestDecoderBoundedWorkOnAdversarialInput(t *testing.T) {
	payload, err := AppendSegment(nil, &Bitstream{Header: Header{W: 65528, H: 65528, Quality: 4}, Frames: [][]byte{{}}, Types: []FrameType{IFrame}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bs, err := ParseSegment(payload)
	if err != nil {
		t.Fatalf("giant-header segment: %v", err)
	}
	_, err = NewDecoder().Decode(bs, 0)
	_, seqErr := DecodeSequence(bs)
	runtime.ReadMemStats(&after)
	if err == nil || seqErr == nil {
		t.Errorf("giant empty frame accepted (Decode: %v, DecodeSequence: %v)", err, seqErr)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting a %d-byte payload allocated %d bytes, want < 1 MB", len(payload), got)
	}
}

// zeroLevelIFrame is a segment of one 16×8 I-frame whose body is 24
// one-bits: six lists UE(0) SE(0) last of 3 bits each. A zero level is not
// a coefficient, so both decoders must refuse it; were it accepted, 15 bits
// would not bound an I-block from below.
const zeroLevelIFrame = "4556533100100008040c010003ffffff"

// TestIntraBlockBoundIsTight: the smallest I-block is three lists of one
// coefficient, UE(0) SE(±1) last, 15 bits. A 64×8 I-frame of eight such
// blocks is exactly 15 body bytes and decodes; a byte less is refused by
// the block-count bound, before the decoder allocates a raster. Lists of a
// zero level, which would be shorter, are refused by both decoders.
func TestIntraBlockBoundIsTight(t *testing.T) {
	w := &bitWriter{}
	for k := 0; k < 8*3; k++ {
		w.writeUE(0)
		w.writeSE(1)
		w.writeBits(1, 1)
	}
	data := w.bytes()
	if len(data) != 15 {
		t.Fatalf("crafted body is %d bytes, want 15", len(data))
	}
	bs := &Bitstream{Header: Header{W: 64, H: 8, Quality: 4}, Frames: [][]byte{data}, Types: []FrameType{IFrame}}
	if _, err := NewDecoder().Decode(bs, 0); err != nil {
		t.Errorf("smallest 64×8 I-frame: %v", err)
	}
	dec := NewDecoder()
	bs.Frames[0] = data[:len(data)-1]
	if _, err := dec.Decode(bs, 0); !errors.Is(err, errBitstream) {
		t.Errorf("one byte short: err = %v, want errBitstream", err)
	}
	if dec.spare != nil {
		t.Error("one byte short: the decoder allocated a raster before refusing the frame")
	}

	seg, err := hex.DecodeString(zeroLevelIFrame)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := ParseSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder().Decode(zero, 0); !errors.Is(err, errBitstream) {
		t.Errorf("lists of a zero level: err = %v, want errBitstream", err)
	}
	if _, err := (&refDecoder{}).decode(zero, 0); !errors.Is(err, errBitstream) {
		t.Errorf("lists of a zero level, reference decoder: err = %v, want errBitstream", err)
	}
}

// TestDecodeSequenceChecksDeclaredDimensions: a bitstream's frames decode
// at the dimensions its header declares, so a header no segment could
// carry — dimensions off the block grid or empty — fails at decode too,
// not only at parse.
func TestDecodeSequenceChecksDeclaredDimensions(t *testing.T) {
	bs, err := EncodeSequence(Config{GOP: 2, Quality: 4, SearchRange: 1}, []*frame.Frame{noisyGradient(16, 16, 82), noisyGradient(16, 16, 83)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSequence(bs); err != nil {
		t.Fatal(err)
	}
	for _, dims := range [][2]int{{12, 16}, {0, 16}, {16, -8}, {1 << 16, 16}} {
		bad := *bs
		bad.W, bad.H = dims[0], dims[1]
		if _, err := DecodeSequence(&bad); err == nil {
			t.Errorf("frames accepted in a bitstream declaring %dx%d", dims[0], dims[1])
		}
	}
}

// FuzzDecode parses the payload as a segment and decodes every frame of
// it: it must return frames or an error — no panic, no frame larger than
// its body's bits can pay for, and the same answer as the reference
// decoder. The payload then doubles as picture content and encoder
// settings for round trips: segment bytes must parse back to the encoder's
// bitstream, and decode∘encode must agree with the reference decoder frame
// by frame and stay within the quantizer's error bound. The same decoder,
// its rasters reused, decodes everything: the fuzzed segment, then a 16×8
// stream, then an 8×16 stream with chroma coding and half-pel motion
// toggled — two dimension changes and a block-coder change mid-decoder.
func FuzzDecode(f *testing.F) {
	addSegment := func(bs *Bitstream) {
		seg, err := AppendSegment(nil, bs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
	}
	textured := noisyGradient(16, 16, 84)
	for _, cfg := range []Config{
		{GOP: 4, Quality: 4, SearchRange: 2},
		{GOP: 4, Quality: 9, SearchRange: 1, ChromaCoding: true, HalfPel: true},
	} {
		// I, a panned P, then a skip-heavy P (the same picture again); and
		// the I-frame alone.
		bs, err := EncodeSequence(cfg, []*frame.Frame{textured, shifted(textured, 1, 1), shifted(textured, 1, 1)})
		if err != nil {
			f.Fatal(err)
		}
		addSegment(bs)
		addSegment(&Bitstream{Header: bs.Header, Frames: bs.Frames[:1], Types: bs.Types[:1]})
	}
	// A second GOP inside the segment: I, P, I at 8×16.
	gop2, err := EncodeSequence(Config{GOP: 2, Quality: 6, SearchRange: 1}, []*frame.Frame{noisyGradient(8, 16, 85), noisyGradient(8, 16, 86), noisyGradient(8, 16, 87)})
	if err != nil {
		f.Fatal(err)
	}
	addSegment(gop2)
	// A flat mid-gray I-frame: every list is the escape.
	gray := frame.New(16, 16)
	for i := range gray.Pix {
		gray.Pix[i] = 128
	}
	flat, err := EncodeSequence(Config{GOP: 1, Quality: 4}, []*frame.Frame{gray})
	if err != nil {
		f.Fatal(err)
	}
	addSegment(flat)
	zero, err := hex.DecodeString(zeroLevelIFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(zero)
	// A segment from before the last-flag syntax: flag bit 3 clear.
	iOld, _ := hex.DecodeString(preLastIFrame)
	pOld, _ := hex.DecodeString(preLastPFrame)
	f.Add(oldSegment(iOld, pOld))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, ref := NewDecoder(), &refDecoder{}
		if bs, err := ParseSegment(data); err == nil {
			for i, body := range bs.Frames {
				got, err := dec.Decode(bs, i)
				want, refErr := ref.decode(bs, i)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("frame %d: decoder: %v, reference decoder: %v", i, err, refErr)
				}
				if err != nil {
					break
				}
				if blocks := got.W * got.H / (blockSize * blockSize); blocks > 8*len(body) {
					t.Fatalf("frame %d: %d-byte body decoded to %d blocks", i, len(body), blocks)
				}
				if !got.Equal(want) {
					t.Fatalf("frame %d: decoded pixels differ from the reference decoder's", i)
				}
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
	enc, err := EncodeSequence(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := AppendSegment(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := ParseSegment(seg)
	if err != nil {
		t.Fatalf("the encoder's segment does not parse: %v", err)
	}
	if !reflect.DeepEqual(bs, enc) {
		t.Fatal("the encoder's segment parses to another bitstream")
	}
	want, _, err := refDecodeSequence(bs)
	if err != nil {
		t.Fatalf("reference decoder rejects the encoder's stream: %v", err)
	}
	c := newBlockCoder(cfg.Quality, cfg.ChromaCoding, cfg.HalfPel)
	for i := range bs.Frames {
		got, err := dec.Decode(bs, i)
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

// FuzzFDCT: the production forward transform equals the dense oracle
// refFDCT in all 64 outputs by bit pattern. The input is read as 64
// little-endian int16 residuals clamped to [−255, 255]; a short input leaves
// the remaining samples zero, so zero rows come often.
func FuzzFDCT(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0xff, 0xff}) // 1, −1: a cancelling pair in row 0
	rng := rand.New(rand.NewSource(47))
	dense := make([]byte, 2*blockLen)
	rng.Read(dense)
	f.Add(dense)
	pairs := make([]byte, 2*blockLen) // row 1 holds 9 and −9, every other row is zero
	binary.LittleEndian.PutUint16(pairs[2*(blockSize+1):], 9)
	binary.LittleEndian.PutUint16(pairs[2*(blockSize+4):], uint16(0xffff-8))
	f.Add(pairs)
	f.Fuzz(func(t *testing.T, data []byte) {
		var in [blockLen]float64
		for i := range in {
			if 2*i+1 < len(data) {
				in[i] = float64(max(-255, min(255, int(int16(binary.LittleEndian.Uint16(data[2*i:]))))))
			}
		}
		requireFDCTMatchesDense(t, "fuzzed block", &in)
	})
}
