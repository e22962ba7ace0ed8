package codec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"evr/internal/frame"
)

// noisyGradient builds a test frame with smooth structure plus texture.
func noisyGradient(w, h int, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := byte(clampInt(x*255/w+rng.Intn(16), 0, 255))
			g := byte(clampInt(y*255/h+rng.Intn(16), 0, 255))
			b := byte(clampInt((x+y)*128/(w+h)+rng.Intn(16), 0, 255))
			f.Set(x, y, r, g, b)
		}
	}
	return f
}

// shifted returns f translated by (dx, dy) with border clamp — an idealized
// "camera pan" successor frame.
func shifted(f *frame.Frame, dx, dy int) *frame.Frame {
	g := frame.New(f.W, f.H)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r, gg, b := f.At(x-dx, y-dy)
			g.Set(x, y, r, gg, b)
		}
	}
	return g
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, c := range []Config{
		{GOP: 0, Quality: 4, SearchRange: 4},
		{GOP: 30, Quality: 0, SearchRange: 4},
		{GOP: 30, Quality: 65, SearchRange: 4},
		{GOP: 30, Quality: 4, SearchRange: -1},
		{GOP: 30, Quality: 4, SearchRange: 16},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestIntraRoundTripQuality(t *testing.T) {
	src := noisyGradient(64, 32, 1)
	bs, err := EncodeSequence(Config{GOP: 1, Quality: 2, SearchRange: 0}, []*frame.Frame{src})
	if err != nil {
		t.Fatal(err)
	}
	if ft := bs.Types[0]; ft != IFrame {
		t.Fatalf("first frame type = %c, want I", ft)
	}
	got, err := NewDecoder().Decode(bs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := frame.PSNR(src, got); psnr < 30 {
		t.Errorf("intra PSNR = %v dB, want ≥ 30", psnr)
	}
	if bs.TotalBytes() >= src.Bytes() {
		t.Errorf("no compression: %d encoded vs %d raw", bs.TotalBytes(), src.Bytes())
	}
}

func TestQualityKnob(t *testing.T) {
	src := noisyGradient(64, 64, 2)
	encode := func(q int) (int, float64) {
		bs, err := EncodeSequence(Config{GOP: 1, Quality: q, SearchRange: 0}, []*frame.Frame{src})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder().Decode(bs, 0)
		if err != nil {
			t.Fatal(err)
		}
		return bs.TotalBytes(), frame.PSNR(src, dec)
	}
	fineBytes, finePSNR := encode(1)
	coarseBytes, coarsePSNR := encode(16)
	if coarseBytes >= fineBytes {
		t.Errorf("coarser quantizer should shrink bytes: %d vs %d", coarseBytes, fineBytes)
	}
	if coarsePSNR >= finePSNR {
		t.Errorf("coarser quantizer should lower PSNR: %v vs %v", coarsePSNR, finePSNR)
	}
}

func TestInterBeatsIntraOnPannedVideo(t *testing.T) {
	// The §5.4 property: video (inter) compression is much better than
	// image (intra) compression for temporally-coherent content.
	base := noisyGradient(64, 64, 3)
	frames := []*frame.Frame{base}
	for i := 1; i < 8; i++ {
		frames = append(frames, shifted(base, i, i/2))
	}
	inter, err := EncodeSequence(Config{GOP: 30, Quality: 4, SearchRange: 4}, frames)
	if err != nil {
		t.Fatal(err)
	}
	intra, err := EncodeSequence(Config{GOP: 1, Quality: 4, SearchRange: 0}, frames)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(intra.TotalBytes()) / float64(inter.TotalBytes())
	if ratio < 1.5 {
		t.Errorf("inter coding gain = %.2fx, want ≥ 1.5x (intra %d vs inter %d bytes)",
			ratio, intra.TotalBytes(), inter.TotalBytes())
	}
}

func TestStaticSceneCostsAlmostNothing(t *testing.T) {
	// The other half of §5.4: where nothing moves, a P-frame is close to
	// free. With 41 fixed bits per block these were 4× smaller than their
	// I-frame; a run of skipped blocks costs hundredths of a bit each.
	still := rsFrames(t, 128, 64, 1)[0]
	bs, err := EncodeSequence(Config{GOP: 30, Quality: 4, SearchRange: 4}, []*frame.Frame{still, still, still, still})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(bs.Frames); i++ {
		if len(bs.Frames[i])*8 > len(bs.Frames[0]) {
			t.Errorf("static P-frame %d is %d bytes against a %d-byte I-frame, want ≥ 8× smaller",
				i, len(bs.Frames[i]), len(bs.Frames[0]))
		}
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	var frames []*frame.Frame
	base := noisyGradient(48, 48, 4)
	for i := 0; i < 6; i++ {
		frames = append(frames, shifted(base, i, -i))
	}
	bs, err := EncodeSequence(DefaultConfig(), frames)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSequence(bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(decoded), len(frames))
	}
	for i := range frames {
		if psnr := frame.PSNR(frames[i], decoded[i]); psnr < 28 {
			t.Errorf("frame %d PSNR = %v dB", i, psnr)
		}
	}
}

func TestGOPStructure(t *testing.T) {
	var frames []*frame.Frame
	for i := 0; i < 10; i++ {
		frames = append(frames, noisyGradient(16, 16, int64(i)))
	}
	bs, err := EncodeSequence(Config{GOP: 4, Quality: 4, SearchRange: 2}, frames)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 4, 8}
	var got []int
	for i, ft := range bs.Types {
		if ft == IFrame {
			got = append(got, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("keyframes at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keyframes at %v, want %v", got, want)
		}
	}
}

func TestEncodeRejectsBadDimensions(t *testing.T) {
	enc, _ := NewEncoder(DefaultConfig())
	if _, _, err := enc.Encode(frame.New(10, 16)); err == nil {
		t.Error("non-multiple-of-8 width accepted")
	}
	if _, _, err := enc.Encode(frame.New(16, 16)); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	if _, _, err := enc.Encode(frame.New(24, 24)); err == nil {
		t.Error("mid-stream size change accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	f := noisyGradient(16, 16, 8)
	bs, err := EncodeSequence(Config{GOP: 4, Quality: 4, SearchRange: 1}, []*frame.Frame{f, f})
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	if _, err := dec.Decode(&Bitstream{Header: bs.Header}, 0); err == nil {
		t.Error("frame of an empty stream accepted")
	}
	bad := *bs
	bad.Types = []FrameType{'X', PFrame}
	if _, err := dec.Decode(&bad, 0); err == nil {
		t.Error("bad frame type accepted")
	}
	// A P-frame with no reference must fail.
	if _, err := NewDecoder().Decode(bs, 1); err == nil {
		t.Error("orphan P-frame accepted")
	}
	// Truncated valid stream must fail, not panic.
	bad.Types, bad.Frames = bs.Types[:1], [][]byte{bs.Frames[0][:len(bs.Frames[0])/3]}
	if _, err := NewDecoder().Decode(&bad, 0); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestEncoderDecoderDriftFree(t *testing.T) {
	// The encoder's internal reference must equal the decoder output
	// exactly, or P-chains drift. Encode a long chain and check PSNR does
	// not degrade along it.
	base := noisyGradient(32, 32, 9)
	var frames []*frame.Frame
	for i := 0; i < 12; i++ {
		frames = append(frames, shifted(base, i%3, i%2))
	}
	bs, err := EncodeSequence(Config{GOP: 100, Quality: 3, SearchRange: 3}, frames)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSequence(bs)
	if err != nil {
		t.Fatal(err)
	}
	first := frame.PSNR(frames[1], decoded[1])
	last := frame.PSNR(frames[len(frames)-1], decoded[len(decoded)-1])
	if last < first-6 {
		t.Errorf("P-chain drift: PSNR fell from %v to %v dB", first, last)
	}
}

// TestBitIORoundTrip: context bins under adapting models, bypass runs of
// every width and exp-Golomb values round-trip through the range coder, and
// the body ends exactly where the decoder's bins do.
func TestBitIORoundTrip(t *testing.T) {
	var e rangeEncoder
	e.reset()
	ctxs := [3]binContext{newBinContext, newBinContext, newBinContext}
	values := []uint32{0, 1, 2, 3, 7, 64, 100, 1000, 65535, 1<<maxSuffixBits - 1}
	for i := 0; i < 500; i++ {
		e.encode(&ctxs[i%3], uint32(i/3%2|i%7/6))
	}
	for _, v := range values {
		writeExpGolomb(&e, v)
	}
	e.bypass(0xABCD, 16)
	body := e.bytes()

	var d rangeDecoder
	d.reset(body)
	ctxs = [3]binContext{newBinContext, newBinContext, newBinContext}
	for i := 0; i < 500; i++ {
		if got, want := d.decode(&ctxs[i%3]), uint32(i/3%2|i%7/6); got != want {
			t.Fatalf("bin %d = %d, want %d", i, got, want)
		}
	}
	for _, v := range values {
		if got := readExpGolomb(&d); got != v {
			t.Fatalf("exp-Golomb %d read back as %d", v, got)
		}
	}
	if got := d.bypass(16); got != 0xABCD {
		t.Fatalf("bypass = %x", got)
	}
	if err := d.finish(); err != nil {
		t.Fatalf("body of %d bytes: %v", len(body), err)
	}
}

// TestMinBinCost derives the decode-work floor's unit: a context bin keeps
// at most the share (1 − probFloor/probOne) of the range when it codes 0
// under the highest probability, and when it codes 1 under the lowest it
// keeps range − (range>>probBits)·probFloor, at most (1 − probFloor/probOne)
// + (probOne−1)·probFloor/(probOne·range) of it, largest at the smallest
// range 2^24. minBinCost is −log2 of that share in 2^-16 bit, rounded
// down, and every (range, probability) at the extremes keeps no more.
func TestMinBinCost(t *testing.T) {
	keep := 1 - float64(probFloor)/probOne + float64(probOne-1)*probFloor/(probOne*float64(topValue))
	if want := int(math.Floor(-math.Log2(keep) * (1 << 16))); minBinCost != want {
		t.Fatalf("minBinCost = %d, derived %d", minBinCost, want)
	}
	for _, rng := range []uint32{topValue, topValue + 1, topValue + probOne - 1, 1<<31 + 12345, 0xFFFFFFFF} {
		for _, p := range []uint32{probFloor, probHalf, probOne - probFloor} {
			bound := (rng >> probBits) * p
			for _, kept := range []uint32{bound, rng - bound} {
				if cost := -math.Log2(float64(kept)/float64(rng)) * (1 << 16); cost < minBinCost {
					t.Errorf("range %#x, p %d: a bin keeps %d, costing %.1f < %d", rng, p, kept, cost, minBinCost)
				}
			}
		}
	}
}

// TestBitReaderEOF: a body cut short makes the decoder read past its slack,
// one with a byte appended ends before the body does, and an exp-Golomb
// prefix longer than maxSuffixBits is corrupt.
func TestBitReaderEOF(t *testing.T) {
	var e rangeEncoder
	e.reset()
	for i := 0; i < 200; i++ {
		e.bypass(uint32(i), 8)
	}
	body := e.bytes()
	var d rangeDecoder
	d.reset(body[:len(body)-1])
	for i := 0; i < 200; i++ {
		d.bypass(8)
	}
	if !d.overrun() || d.finish() == nil {
		t.Error("truncated body read to the end")
	}
	d.reset(append(append([]byte(nil), body...), 0))
	for i := 0; i < 200; i++ {
		d.bypass(8)
	}
	if d.overrun() || d.finish() == nil {
		t.Errorf("padded body: overrun %v, finish %v; want false and an error", d.overrun(), d.finish())
	}
	e.reset()
	e.bypass(1<<(maxSuffixBits+1)-1, maxSuffixBits+1)
	d.reset(e.bytes())
	if readExpGolomb(&d); !d.overrun() {
		t.Error("exp-Golomb prefix past maxSuffixBits accepted")
	}
}

func TestDCTRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var in, freq, out [blockSize * blockSize]float64
	for i := range in {
		in[i] = float64(rng.Intn(256)) - 128
	}
	fdct(&in, &freq)
	idct(&freq, ^uint64(0), &out)
	for i := range in {
		if math.Abs(in[i]-out[i]) > 1e-9 {
			t.Fatalf("DCT round trip error %v at %d", math.Abs(in[i]-out[i]), i)
		}
	}
}

// TestSparseIDCTMatchesDense: the inverse transform that visits only the
// coefficients on its mask equals the dense oracle (refIDCT) in all 64
// outputs by bit pattern, and reconstruct built on it equals the dense
// dequantize → transform → round route byte for byte. The blocks cover DC
// only (the fast path), one AC coefficient at each of the 64 positions,
// random sparse levels of 0 / ±1 / ±max, and every coefficient nonzero,
// each under five quantizers. Random blocks also run with masks that name
// some zero-level positions: the transform must not rely on an exact mask.
func TestSparseIDCTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	levels := []int32{1, -1, math.MaxInt32, -math.MaxInt32, 3, -7}
	level := func() int32 { return levels[rng.Intn(len(levels))] }
	type block struct {
		q  [blockLen]int32
		nz uint64
	}
	var blocks []block
	add := func(q [blockLen]int32, slack bool) {
		b := block{q: q}
		for i, l := range q {
			if l != 0 || slack && rng.Intn(16) == 0 {
				b.nz |= 1 << uint(i)
			}
		}
		blocks = append(blocks, b)
	}
	for _, dc := range append(levels, -3000, -260, -99, 2, 5, 17, 130, 255, 2999) {
		var q [blockLen]int32
		q[0] = dc
		add(q, false)
	}
	for i := 0; i < blockLen; i++ {
		var q [blockLen]int32
		q[i] = level()
		add(q, false)
	}
	for n := 0; n < 300; n++ {
		var q [blockLen]int32
		for i := range q {
			if rng.Intn(8) == 0 {
				q[i] = level()
			}
		}
		add(q, n%2 == 1)
	}
	var full [blockLen]int32
	for i := range full {
		full[i] = level()
	}
	add(full, false)

	coders := []*blockCoder{newBlockCoder(1, false, false), newBlockCoder(5, true, true),
		newBlockCoder(9, false, false), newBlockCoder(11, true, false), newBlockCoder(64, true, false)}
	for b, blk := range blocks {
		for n, c := range coders {
			ch := (b + n) % 3
			var freq, got, want [blockLen]float64
			for i, l := range blk.q {
				freq[i] = float64(l) * c.steps[ch][i]
			}
			idct(&freq, blk.nz, &got)
			refIDCT(&freq, &want)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("block %d (mask %#x), coder %d: output %d is %v, dense %v", b, blk.nz, n, i, got[i], want[i])
				}
			}

			var pred, out, ref pixBlock
			for i := range pred {
				pred[i] = byte(rng.Intn(256))
			}
			out, ref = pred, pred
			c.reconstruct(&blk.q, blk.nz, &pred, &out, ch)
			for i, r := range want {
				ref[i*3+ch] = byte(min(max(int(r+float64(pred[i*3+ch])+0.5), 0), 255))
			}
			if out != ref {
				t.Fatalf("block %d (mask %#x), coder %d: reconstruct differs from the dense route", b, blk.nz, n)
			}
		}
	}
}

// requireFDCTMatchesDense fails unless fdct and the dense oracle refFDCT
// agree on in in all 64 outputs by bit pattern.
func requireFDCTMatchesDense(t testing.TB, name string, in *[blockLen]float64) {
	t.Helper()
	var got, want [blockLen]float64
	fdct(in, &got)
	refFDCT(in, &want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: output %d is %v (%#x), dense %v (%#x); input %v", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), *in)
		}
	}
}

// TestFDCTMatchesDense: the forward transform that skips all-zero rows and
// runs each pass's eight sums as separate chains equals the dense oracle
// (refFDCT) in all 64 outputs by bit pattern. The blocks cover the all-zero
// block (+0 and −0 samples), one ±1 / ±255 sample at each of the 64
// positions, every zero-row mask over a random block, random dense and
// sparse residuals in [−255, 255], and rows of cancelling pairs: a row of
// one +v and one −v has an exact +0 DC term, so a column of the second pass
// sums only ±0 products and its sign rests on the +0 start of each sum.
func TestFDCTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var zero [blockLen]float64
	requireFDCTMatchesDense(t, "zero block", &zero)
	for i := range zero {
		zero[i] = math.Copysign(0, -1)
	}
	requireFDCTMatchesDense(t, "−0 block", &zero)
	for i := 0; i < blockLen; i++ {
		for _, v := range []float64{1, -1, 255, -255} {
			var in [blockLen]float64
			in[i] = v
			requireFDCTMatchesDense(t, fmt.Sprintf("sample %v at %d", v, i), &in)
		}
	}
	residual := func() float64 { return float64(rng.Intn(511) - 255) }
	var dense [blockLen]float64
	for i := range dense {
		dense[i] = residual()
	}
	for mask := 0; mask < 1<<blockSize; mask++ {
		in := dense
		for y := 0; y < blockSize; y++ {
			if mask&(1<<y) == 0 {
				clear(in[y*blockSize : (y+1)*blockSize])
			}
		}
		requireFDCTMatchesDense(t, fmt.Sprintf("row mask %#02x", mask), &in)
	}
	for n := 0; n < 20000; n++ {
		var in [blockLen]float64
		switch n % 3 {
		case 0: // dense
			for i := range in {
				in[i] = residual()
			}
		case 1: // sparse
			for i := range in {
				if rng.Intn(8) == 0 {
					in[i] = residual()
				}
			}
		default: // cancelling pairs in random rows
			for y := 0; y < blockSize; y++ {
				if rng.Intn(3) == 0 {
					v, a, b := residual(), rng.Intn(blockSize), rng.Intn(blockSize)
					if a != b {
						in[y*blockSize+a], in[y*blockSize+b] = v, -v
					}
				}
			}
		}
		requireFDCTMatchesDense(t, fmt.Sprintf("random block %d", n), &in)
	}
}

// TestQuantizeMatchesDivide: quantize's dead zone, which sets a level to 0
// without dividing when |f| < step/4, yields the same levels and nonzero
// mask as dividing every coefficient. It runs every step of qualities
// 1–64, luma and chroma, at ±step/4 and ±step/2 and the math.Nextafter
// neighbours of each on both sides, at ±0, at random values within ±3
// steps, and random residual blocks through the whole quantize (transform
// included) against refFDCT and refLevels.
func TestQuantizeMatchesDivide(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// probes returns the values probed at one step: ±0, then ±step/4 and
	// ±step/2, each with its neighbours toward and away from zero.
	probes := func(step float64) []float64 {
		p := []float64{0, math.Copysign(0, -1)}
		for _, b := range []float64{step / 4, -step / 4, step / 2, -step / 2} {
			p = append(p, b, math.Nextafter(b, 0), math.Nextafter(b, 2*b))
		}
		return p
	}
	nProbes := len(probes(1))
	check := func(c *blockCoder, ch int, freq *[blockLen]float64, name string) {
		t.Helper()
		var got, want [blockLen]int32
		for i := range got {
			got[i] = 7 // levels must overwrite every entry
		}
		gotNZ := c.levels(freq, ch, &got)
		wantNZ := refLevels(freq, &c.steps[ch], &want)
		if got != want || gotNZ != wantNZ {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: coefficient %d = %v (step %v): level %d, divide gives %d (masks %#x, %#x)",
						name, i, freq[i], c.steps[ch][i], got[i], want[i], gotNZ, wantNZ)
				}
			}
			t.Fatalf("%s: mask %#x, divide gives %#x", name, gotNZ, wantNZ)
		}
	}
	for quality := 1; quality <= 64; quality++ {
		for _, chroma := range []bool{false, true} {
			c := newBlockCoder(quality, chroma, false)
			for ch := 0; ch < 3; ch++ {
				name := fmt.Sprintf("quality %d chroma %v channel %d", quality, chroma, ch)
				var freq [blockLen]float64
				for p := 0; p < nProbes; p++ {
					for i, step := range c.steps[ch] {
						freq[i] = probes(step)[p]
					}
					check(c, ch, &freq, fmt.Sprintf("%s probe %d", name, p))
				}
				for n := 0; n < 20; n++ {
					for i, step := range c.steps[ch] {
						freq[i] = (rng.Float64()*6 - 3) * step
					}
					check(c, ch, &freq, fmt.Sprintf("%s random %d", name, n))
				}
			}
		}
	}
	for n := 0; n < 3000; n++ {
		c := newBlockCoder(1+rng.Intn(64), n%2 == 1, false)
		ch := n % 3
		var px, pred pixBlock
		for i := range px {
			px[i], pred[i] = byte(rng.Intn(256)), byte(rng.Intn(256))
			if n%4 < 2 && rng.Intn(4) > 0 { // mostly-zero residuals
				pred[i] = px[i]
			}
		}
		var spatial, freq [blockLen]float64
		for i := range spatial {
			spatial[i] = float64(px[i*3+ch]) - float64(pred[i*3+ch])
		}
		refFDCT(&spatial, &freq)
		var got, want [blockLen]int32
		gotNZ := c.quantize(&px, &pred, ch, &got)
		wantNZ := refLevels(&freq, &c.steps[ch], &want)
		if got != want || gotNZ != wantNZ {
			t.Fatalf("random block %d: quantize levels %v (mask %#x), dense divide route %v (mask %#x)", n, got, gotNZ, want, wantNZ)
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, v := range zigzag {
		if v < 0 || v >= blockSize*blockSize || seen[v] {
			t.Fatalf("zigzag not a permutation at %d", v)
		}
		seen[v] = true
	}
	if zigzag[0] != 0 || zigzag[1] != 1 || zigzag[2] != 8 {
		t.Errorf("zigzag prefix = %v %v %v, want 0 1 8", zigzag[0], zigzag[1], zigzag[2])
	}
}

func TestChromaCodingSavesBytes(t *testing.T) {
	// YCbCr coding with coarse chroma must shrink the stream on colorful
	// content while keeping luma fidelity high.
	src := noisyGradient(64, 64, 500)
	encode := func(chroma bool) (int, float64) {
		bs, err := EncodeSequence(Config{GOP: 1, Quality: 4, SearchRange: 0, ChromaCoding: chroma}, []*frame.Frame{src})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder().Decode(bs, 0)
		if err != nil {
			t.Fatal(err)
		}
		return bs.TotalBytes(), frame.PSNR(src, dec)
	}
	rgbBytes, rgbPSNR := encode(false)
	ycbBytes, ycbPSNR := encode(true)
	if ycbBytes >= rgbBytes {
		t.Errorf("chroma coding did not save bytes: %d vs %d", ycbBytes, rgbBytes)
	}
	// Quality may dip slightly but must stay in the same class.
	if ycbPSNR < rgbPSNR-6 {
		t.Errorf("chroma coding PSNR %v too far below RGB %v", ycbPSNR, rgbPSNR)
	}
}

func TestChromaCodingPChainDecodes(t *testing.T) {
	// The whole prediction loop runs in YCbCr: a P-chain must decode
	// without drift or color shifts.
	base := noisyGradient(32, 32, 501)
	var frames []*frame.Frame
	for i := 0; i < 6; i++ {
		frames = append(frames, shifted(base, i, 0))
	}
	bs, err := EncodeSequence(Config{GOP: 6, Quality: 3, SearchRange: 2, ChromaCoding: true}, frames)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSequence(bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range decoded {
		if psnr := frame.PSNR(frames[i], decoded[i]); psnr < 26 {
			t.Errorf("frame %d PSNR = %v", i, psnr)
		}
	}
}

func TestChromaFlagSurvivesBitstream(t *testing.T) {
	src := noisyGradient(16, 16, 502)
	bs, err := EncodeSequence(Config{GOP: 1, Quality: 4, ChromaCoding: true}, []*frame.Frame{src})
	if err != nil {
		t.Fatal(err)
	}
	data, err := AppendSegment(nil, bs)
	if err != nil {
		t.Fatal(err)
	}
	// The flags byte is the 10th of the segment header (after magic, W, H,
	// quality).
	if data[9]&0x01 == 0 {
		t.Error("chroma flag not set in the segment header")
	}
	if got, err := ParseSegment(data); err != nil || !got.ChromaCoding {
		t.Errorf("parsed chroma flag %v (err %v), want set", got != nil && got.ChromaCoding, err)
	}
	// An invalid flags byte must be rejected.
	data[9] = 0xFF
	if _, err := ParseSegment(data); err == nil {
		t.Error("garbage flags byte accepted")
	}
}

// subPelShift translates a frame by a fractional offset via bilinear
// resampling — content integer motion search cannot match exactly.
func subPelShift(f *frame.Frame, dx, dy float64) *frame.Frame {
	g := frame.New(f.W, f.H)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r, gg, b := f.BilinearAt(float64(x)-dx, float64(y)-dy)
			g.Set(x, y, r, gg, b)
		}
	}
	return g
}

func TestHalfPelImprovesSubPixelMotion(t *testing.T) {
	base := noisyGradient(64, 64, 600)
	frames := []*frame.Frame{base}
	for i := 1; i < 6; i++ {
		frames = append(frames, subPelShift(base, 0.5*float64(i), 0.5*float64(i)))
	}
	encode := func(halfPel bool) (int, float64) {
		cfg := Config{GOP: 6, Quality: 4, SearchRange: 4, HalfPel: halfPel}
		bs, err := EncodeSequence(cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeSequence(bs)
		if err != nil {
			t.Fatal(err)
		}
		var psnr float64
		for i := range frames {
			psnr += frame.PSNR(frames[i], decoded[i])
		}
		return bs.TotalBytes(), psnr / float64(len(frames))
	}
	intBytes, intPSNR := encode(false)
	halfBytes, halfPSNR := encode(true)
	// Half-pel must win on at least one axis without losing the other.
	if halfBytes >= intBytes && halfPSNR <= intPSNR {
		t.Errorf("half-pel no better: %d B / %.1f dB vs %d B / %.1f dB",
			halfBytes, halfPSNR, intBytes, intPSNR)
	}
	if halfBytes > intBytes*11/10 {
		t.Errorf("half-pel bytes %d blew up vs %d", halfBytes, intBytes)
	}
	if halfPSNR < intPSNR-0.5 {
		t.Errorf("half-pel PSNR %.1f regressed vs %.1f", halfPSNR, intPSNR)
	}
}

func TestHalfPelStreamRoundTrip(t *testing.T) {
	base := noisyGradient(32, 32, 601)
	frames := []*frame.Frame{base, subPelShift(base, 1.5, -0.5), subPelShift(base, 3.0, 1.0)}
	bs, err := EncodeSequence(Config{GOP: 3, Quality: 3, SearchRange: 4, HalfPel: true}, frames)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSequence(bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		if psnr := frame.PSNR(frames[i], decoded[i]); psnr < 26 {
			t.Errorf("frame %d PSNR = %v", i, psnr)
		}
	}
	// The half-pel flag must be present in the segment header.
	data, err := AppendSegment(nil, bs)
	if err != nil {
		t.Fatal(err)
	}
	if data[9]&0x02 == 0 {
		t.Error("half-pel flag missing from the segment header")
	}
}

func TestHalfPelComposesWithChroma(t *testing.T) {
	base := noisyGradient(32, 32, 602)
	frames := []*frame.Frame{base, subPelShift(base, 0.5, 0.5)}
	cfg := Config{GOP: 2, Quality: 4, SearchRange: 2, HalfPel: true, ChromaCoding: true}
	bs, err := EncodeSequence(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSequence(bs)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := frame.PSNR(frames[1], decoded[1]); psnr < 24 {
		t.Errorf("combined-mode PSNR = %v", psnr)
	}
}
