package codec

import (
	"bytes"
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

// zeroLevelIFrame is a segment of one 16×8 I-frame in the exp-Golomb
// syntax whose body is 24 one-bits: six lists UE(0) SE(0) last of 3 bits
// each, which that syntax's decoders refused. Without flag bit 4 it is
// stale now, and FuzzDecode starts from it.
const zeroLevelIFrame = "4556533100100008040c010003ffffff"

// floorBytes is the shortest body Decode accepts for a frame of blocks
// blocks: the least n with blocks·cost < 8n bits (cost in 2^-16 bit).
func floorBytes(blocks int, cost int64) int {
	return int(int64(blocks)*cost/(8<<16)) + 1
}

// requireFloorIsTight decodes body, the shortest the encoder writes for its
// frame (frame 1 of bs, after the I-frame 0, or frame 0 alone), and the same
// less its last byte: the body must be exactly at the floor and decode, and
// the shorter one must be refused before the decoder allocates a raster.
func requireFloorIsTight(t *testing.T, name string, bs *Bitstream, i int, cost int64) {
	t.Helper()
	body := bs.Frames[i]
	blocks := (bs.W / blockSize) * (bs.H / blockSize)
	if n := floorBytes(blocks, cost); len(body) != n {
		t.Fatalf("%s: %d blocks in a %d-byte body, floor %d bytes", name, blocks, len(body), n)
	}
	dec := NewDecoder()
	for k := 0; k <= i; k++ {
		if _, err := dec.Decode(bs, k); err != nil {
			t.Fatalf("%s: frame %d at the floor: %v", name, k, err)
		}
	}
	short := &Bitstream{Header: bs.Header, Frames: [][]byte{body[:len(body)-1]}, Types: []FrameType{bs.Types[i]}}
	dec = NewDecoder()
	if i > 0 {
		if _, err := dec.Decode(bs, 0); err != nil {
			t.Fatal(err)
		}
		short.Frames = [][]byte{bs.Frames[0], body[:len(body)-1]}
		short.Types = bs.Types[:2]
	}
	spare := dec.spare
	if _, err := dec.Decode(short, i); !errors.Is(err, errBitstream) {
		t.Errorf("%s: one byte short: err = %v, want errBitstream", name, err)
	}
	if dec.spare != spare {
		t.Errorf("%s: one byte short: the decoder allocated a raster before refusing the frame", name)
	}
}

// TestBlockFloorIsTight: the most compressible P-frame — every block a
// skip, every skip flag under one context whose probability settles on
// its floor — takes floorBytes of minInterBlockCost and decodes; a byte
// less is refused by the block-count bound before the decoder allocates a
// raster. At 1536×64 that is 1536 blocks in 3 bytes.
func TestBlockFloorIsTight(t *testing.T) {
	still := noisyGradient(1536, 64, 140)
	bs, err := EncodeSequence(Config{GOP: 2, Quality: 4}, []*frame.Frame{still, reconstructed(t, 4, still)})
	if err != nil {
		t.Fatal(err)
	}
	requireFloorIsTight(t, "all-skip P-frame", bs, 1, minInterBlockCost)
}

// TestIntraBlockBoundIsTight: the smallest I-block is three clear coded
// flags, a mid-gray block; a flat mid-gray I-frame is exactly at the
// floor of minIntraBlockCost and decodes, and a byte less is refused
// before the decoder allocates a raster. At 256×64 that is 256 blocks in
// 2 bytes.
func TestIntraBlockBoundIsTight(t *testing.T) {
	gray := frame.New(256, 64)
	for i := range gray.Pix {
		gray.Pix[i] = 128
	}
	bs, err := EncodeSequence(Config{GOP: 1, Quality: 4}, []*frame.Frame{gray})
	if err != nil {
		t.Fatal(err)
	}
	requireFloorIsTight(t, "mid-gray I-frame", bs, 0, minIntraBlockCost)
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
	// A flat mid-gray I-frame: every coded flag is clear.
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
	// The most compressible P-body: 256 skipped blocks in one byte.
	still := reconstructed(f, 4, noisyGradient(256, 64, 88))
	skips, err := EncodeSequence(Config{GOP: 2, Quality: 4, SearchRange: 1}, []*frame.Frame{still, still})
	if err != nil {
		f.Fatal(err)
	}
	addSegment(skips)
	// Levels past the unary prefix: random pixels at the finest quantizer.
	coarse, err := EncodeSequence(Config{GOP: 2, Quality: 1, SearchRange: 3}, []*frame.Frame{garbage(16, 8, 89), garbage(16, 8, 90)})
	if err != nil {
		f.Fatal(err)
	}
	addSegment(coarse)
	// A segment of exp-Golomb bodies: flag bit 4 clear.
	f.Add(mustHex(f, preRangeCoded))
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
				if blocks := got.W * got.H / (blockSize * blockSize); len(body) < floorBytes(blocks, minInterBlockCost) {
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

// rangeOps reads data as a script of coder operations, one per byte b:
// b%4 < 2 a context bin b>>5&1 under context b>>2&7; 2 a bypass run of
// b>>2 bits (up to 32) of a value from the next four bytes; 3 an
// exp-Golomb value of the next two bytes' bit width.
type rangeOp struct {
	kind, ctx int
	v         uint32
	n         int
}

func rangeOps(data []byte) []rangeOp {
	var ops []rangeOp
	next := func(i, n int) (v uint32) {
		for k := 1; k <= n && i+k < len(data); k++ {
			v = v<<8 | uint32(data[i+k])
		}
		return v
	}
	for i, b := range data {
		op := rangeOp{kind: int(b % 4)}
		switch op.kind {
		case 0, 1:
			op.kind, op.ctx, op.v = 0, int(b>>2&7), uint32(b>>5&1)
			ops = append(ops, op)
		case 2:
			op.n = min(int(b>>2), 32)
			op.v = next(i, 4) & uint32(1<<op.n-1)
			ops = append(ops, op)
		case 3:
			op.v = next(i, 2) >> (b >> 4)
			ops = append(ops, op)
		}
	}
	return ops
}

// FuzzRangeCoder: any script of context bins, bypass runs and exp-Golomb
// values (rangeOps) comes back from the range decoder exactly, in a body
// that ends where its bins do and equals the reference encoder's. The same
// bytes read as a body under the same script never panic, decode the same
// values as the reference decoder until it finds them corrupt, and fail
// exactly when it does: when the bins run past the slack, leave bytes
// over, or decode a code the encoder cannot write.
func FuzzRangeCoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x20, 0x04, 0x24, 0x82, 0xff, 0x00, 0x12, 0x34, 0x03, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x20}, 300)) // one context driven to its floor
	f.Add(bytes.Repeat([]byte{0x82, 0xff, 0xff, 0xff, 0xff}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := rangeOps(data)
		var e rangeEncoder
		e.reset()
		ref := newRefRangeEncoder()
		var ctxs [8]binContext
		for i := range ctxs {
			ctxs[i] = newBinContext
		}
		for _, op := range ops {
			switch op.kind {
			case 0:
				e.encode(&ctxs[op.ctx], op.v)
				ref.bin(ref.models.get("c%d", op.ctx), int(op.v))
			case 2:
				e.bypass(op.v, op.n)
				for k := op.n - 1; k >= 0; k-- {
					ref.bypass(int(op.v >> k & 1))
				}
			case 3:
				writeExpGolomb(&e, op.v)
				ref.expGolomb(int(op.v))
			}
		}
		body := e.bytes()
		if want := ref.bytes(); !bytes.Equal(body, want) {
			t.Fatalf("body %x, reference encoder %x", body, want)
		}
		for _, in := range []struct {
			body []byte
			own  bool // the encoder's body: every value must come back
		}{{body, true}, {data, false}} {
			var d rangeDecoder
			d.reset(in.body)
			rd := newRefRangeDecoder(in.body)
			for i := range ctxs {
				ctxs[i] = newBinContext
			}
			for k, op := range ops {
				var got, refGot uint32
				switch op.kind {
				case 0:
					got, refGot = d.decode(&ctxs[op.ctx]), uint32(rd.bin(rd.models.get("c%d", op.ctx)))
				case 2:
					got = d.bypass(op.n)
					for j := 0; j < op.n; j++ {
						refGot = refGot<<1 | uint32(rd.bypass())
					}
				case 3:
					got, refGot = readExpGolomb(&d), uint32(rd.expGolomb())
				}
				// Past a corrupt code the two are free to differ; only
				// the verdict below must agree.
				if got != refGot && rd.err == nil {
					t.Fatalf("op %d (%+v): decoded %d, reference %d", k, op, got, refGot)
				}
				if in.own && got != op.v {
					t.Fatalf("op %d (%+v): decoded %d", k, op, got)
				}
			}
			refErr := rd.err
			if refErr == nil && rd.pos != len(in.body)+rangeSlack {
				refErr = errBitstream
			}
			err := d.finish()
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%d-byte body: finish %v, reference %v", len(in.body), err, refErr)
			}
			if in.own && err != nil {
				t.Fatalf("the encoder's %d-byte body: %v", len(in.body), err)
			}
		}
	})
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
