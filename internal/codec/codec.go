// Package codec implements the planar-video codec substrate of the EVR
// system: a block-transform video codec with intra (I) and motion-compensated
// inter (P) frames, organized into Groups of Pictures.
//
// The paper's system design leans on two codec properties this package
// reproduces faithfully:
//
//   - Inter coding compresses far better than intra coding ("video
//     compression rate is much higher than image compression rate", §5.4),
//     which is why a FOV miss re-streams a whole segment rather than single
//     frames.
//   - The temporal segment length of SAS is aligned to the GOP size (§5.3,
//     30 frames), because a segment must be independently decodable.
//
// The format is a toy relative to H.264 — 8×8 float DCT, uniform
// quantization, full-search motion compensation — with a real entropy
// layer: every frame body is one context-adaptive binary range code in the
// manner of LZMA and CABAC. It is a deterministic codec: every byte the
// system streams, stores, or measures is produced by Encode and consumed by
// Decode.
//
// Segment layout (DESIGN.md §2 has the table). A segment is one GOP-aligned
// run of frames with one header; nothing is repeated per frame but the
// body's length. Fixed-width fields are big endian and uvarints are
// encoding/binary's minimal form:
//
//	segment := "EVS1"  W:u16  H:u16  quality:u8  flags:u8  n:uvarint
//	           types:⌈n/8⌉ bytes (bit i%8 of byte i/8 set: frame i is a P-frame)
//	           { len:uvarint  body }×n
//	flags   := bit0 ChromaCoding, bit1 HalfPel, bit2 skip/CBP syntax,
//	           bit3 last-flag coefficient lists, bit4 range-coded bodies
//	           (bits 2–4 required)
//
// A body is the range code (rangecoder.go) of its blocks' bins in raster
// order; c is a bin coded under an adaptive context, b an equiprobable
// bypass bin, and every context starts afresh in each body:
//
//	I block := { coded:c  [list] }×3              -- per channel; list DC is the difference from the left block's
//	P block := skip:c                             -- 1: copy of the reference block
//	         | skip:c=0  mvd mvd  cbp:c×3  { list }  -- a list per set cbp bit
//	mvd     := nonzero:c [ unary(|d|−1):c≤8 [EG0:b] sign:b ]  -- d: component − median of left, top, top-right
//	list    := { sig:c [ last:c ] }               -- zigzag positions up to the last level; 63 implied
//	           { gt1:c [ unary:c≤13 [EG0:b] ] sign:b }  -- |level|−1 of each level, last to first
//
// ParseSegment checks the header once for every frame; Decode checks only
// what a body needs: enough bytes for its blocks' floor and, for a P-frame,
// a reference, and that its bins end exactly where its bytes do.
//
// A P-block is a skip when its motion vector is (0, 0) and all three
// channels quantize to zero; cbp bit ch says whether channel ch carries any
// coefficient. Contexts (syntax.go) follow what is coded around a bin: the
// skips left and above, the position band of a significance or last flag
// (× intra/inter × luma/chroma), how many levels were 1 or more so far. A
// run of skipped blocks therefore costs a few hundredths of a bit each, and
// the decoder's floor (minBinCost per context bin) bounds the blocks a body
// can describe.
package codec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"evr/internal/display"
	"evr/internal/frame"
)

// FrameType distinguishes intra from predicted frames.
type FrameType byte

const (
	// IFrame is an intra-coded frame, decodable on its own.
	IFrame FrameType = 'I'
	// PFrame is an inter-coded frame, predicted from the previous frame.
	PFrame FrameType = 'P'
)

// Config holds encoder parameters.
type Config struct {
	GOP         int // frames per group of pictures; every GOP-th frame is an I-frame
	Quality     int // quantizer scale, 1 = finest
	SearchRange int // motion-estimation search radius in pixels
	// ChromaCoding codes frames in YCbCr with coarser chroma quantization
	// — the perceptual trick every deployed codec uses. The eye's lower
	// chroma acuity buys bytes at equal perceived quality.
	ChromaCoding bool
	// HalfPel refines motion vectors to half-pixel precision with bilinear
	// reference interpolation, shrinking residuals on sub-pixel motion.
	HalfPel bool
}

// DefaultConfig matches the paper's streaming setup: 30-frame GOPs (§5.3).
func DefaultConfig() Config {
	return Config{GOP: 30, Quality: 4, SearchRange: 4}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.GOP < 1 {
		return fmt.Errorf("codec: GOP %d must be ≥ 1", c.GOP)
	}
	if c.Quality < 1 || c.Quality > 64 {
		return fmt.Errorf("codec: quality %d out of [1, 64]", c.Quality)
	}
	if c.SearchRange < 0 || c.SearchRange > 15 {
		return fmt.Errorf("codec: search range %d out of [0, 15]", c.SearchRange)
	}
	return nil
}

// Encoder compresses a sequence of equally-sized frames. Frames must be fed
// in display order. The zero value is unusable; use NewEncoder.
//
// Like Decoder, an Encoder reuses its rasters: the reconstruction alternates
// between two frames (the reference and the one being rebuilt), the luma
// planes motion search reads and the bit writer's buffer are kept, and the
// block coder is built once. A steady-state frame allocates only its body.
type Encoder struct {
	cfg        Config
	ref        *frame.Frame // reconstructed previous frame (what the decoder sees)
	spare      *frame.Frame // the raster the next frame is reconstructed into
	srcY, refY []uint8      // luma planes of the source and the reference
	coder      *blockCoder
	rc         rangeEncoder // scratch; each body is copied out at its length
	syn        blockSyntax
	count      int // frames since last I-frame
}

// NewEncoder builds an encoder, or reports why the configuration is invalid.
func NewEncoder(cfg Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Encoder{cfg: cfg}, nil
}

// Segment flag bits. flagSkipCBP, flagLastFlag and flagRangeCoded mark the
// block, coefficient and entropy syntax of the package comment; every
// segment this package writes sets all three and ParseSegment refuses a
// segment without them, so a payload from before a syntax change fails
// loudly instead of decoding garbage.
const (
	flagChroma     = 1 << iota // ChromaCoding
	flagHalfPel                // motion vectors in half-pel units
	flagSkipCBP                // P-blocks carry a skip flag and a coded-block pattern
	flagLastFlag               // coefficient lists end on a last flag, not an end-of-block run
	flagRangeCoded             // frame bodies are context-adaptive range-coded bins, not exp-Golomb words
	flagsKnown     = flagChroma | flagHalfPel | flagSkipCBP | flagLastFlag | flagRangeCoded
)

// ErrStaleFormat reports a payload written before the current format — the
// one-header segment container, the last-flag coefficient syntax or the
// range-coded frame bodies: its bytes cannot be decoded by this package
// any more.
var ErrStaleFormat = errors.New("codec: payload predates the current segment format; re-ingest the video")

const (
	blockLen   = blockSize * blockSize
	rowBytes   = blockSize * 3 // one block row of interleaved RGB
	blockBytes = blockSize * rowBytes

	maxMotion = 128 // largest motion component the decoder accepts
)

// The fewest bits, in units of 2^-16 bit, a block takes: three channel
// flags in an I-frame, one skip flag in a P-frame, each a context-coded bin
// that costs at least minBinCost. A body of n bytes holds bins costing
// less than 8n bits, so Decode refuses a body too short for its blocks'
// floor before it allocates the frame.
const (
	minIntraBlockCost = 3 * minBinCost
	minInterBlockCost = minBinCost
)

// pixBlock is one 8×8 block of interleaved RGB, rows of rowBytes.
type pixBlock [blockBytes]byte

// intraPred is the "prediction" of an intra block: mid-gray.
var intraPred = func() (b pixBlock) {
	for i := range b {
		b[i] = 128
	}
	return b
}()

// loadBlock copies the block at (bx, by), which must lie inside f.
func loadBlock(f *frame.Frame, bx, by int, dst *pixBlock) {
	for y := 0; y < blockSize; y++ {
		off := ((by+y)*f.W + bx) * 3
		copy(dst[y*rowBytes:(y+1)*rowBytes], f.Pix[off:off+rowBytes])
	}
}

// storeBlock writes src over the block at (bx, by), which must lie inside f.
func storeBlock(f *frame.Frame, bx, by int, src *pixBlock) {
	for y := 0; y < blockSize; y++ {
		off := ((by+y)*f.W + bx) * 3
		copy(f.Pix[off:off+rowBytes], src[y*rowBytes:(y+1)*rowBytes])
	}
}

// copyBlock copies the block at (bx, by) from src to the same place in dst
// — what a skipped block decodes to.
func copyBlock(dst, src *frame.Frame, bx, by int) {
	for y := 0; y < blockSize; y++ {
		off := ((by+y)*src.W + bx) * 3
		copy(dst.Pix[off:off+rowBytes], src.Pix[off:off+rowBytes])
	}
}

// blockCoder holds the per-frame parameters both directions code blocks
// with.
type blockCoder struct {
	steps   [3][blockLen]float64 // quantizer step per channel and coefficient
	halfPel bool
	// reconstruct's scratch, kept so a call does not clear 1 kB: idct reads
	// freq only on the mask reconstruct writes, and writes all of rec.
	freq, rec [blockLen]float64
}

func newBlockCoder(quality int, chroma, halfPel bool) *blockCoder {
	c := &blockCoder{halfPel: halfPel}
	for ch := range c.steps {
		q := quality
		// Chroma channels are quantized twice as coarsely under ChromaCoding.
		if chroma && ch > 0 {
			q = min(2*q, 64)
		}
		for ky := 0; ky < blockSize; ky++ {
			for kx := 0; kx < blockSize; kx++ {
				c.steps[ch][ky*blockSize+kx] = quantStep(ky, kx, q)
			}
		}
	}
	return c
}

// quantize transforms the residual of channel ch (px − pred) and quantizes
// it into q, returning the mask of its nonzero levels (bit i for q[i]).
func (c *blockCoder) quantize(px, pred *pixBlock, ch int, q *[blockLen]int32) (nz uint64) {
	var spatial, freq [blockLen]float64
	for i := range spatial {
		spatial[i] = float64(px[i*3+ch]) - float64(pred[i*3+ch])
	}
	fdct(&spatial, &freq)
	return c.levels(&freq, ch, q)
}

// levels quantizes the coefficients freq of channel ch into q, each to
// int32(f/step ± 0.5) rounding half away from zero, and returns the mask of
// the nonzero levels. A coefficient with |f| < step/4 is set to 0 without
// the divide, which is exact: step/4 is a power-of-two scaling, so such an
// f has |f/step| ≤ 1/4 after rounding, and f/step ± 0.5 truncates to 0.
func (c *blockCoder) levels(freq *[blockLen]float64, ch int, q *[blockLen]int32) (nz uint64) {
	steps := &c.steps[ch]
	for i, f := range freq {
		if math.Abs(f) < 0.25*steps[i] {
			q[i] = 0
			continue
		}
		f /= steps[i]
		if f >= 0 {
			q[i] = int32(f + 0.5)
		} else {
			q[i] = int32(f - 0.5)
		}
		if q[i] != 0 {
			nz |= 1 << uint(i)
		}
	}
	return nz
}

// reconstruct dequantizes and inverse-transforms q, whose levels are zero
// off the mask nz, and writes pred plus that residual, rounded and clamped
// to [0, 255], into channel ch of out. Encoder and decoder both build their
// reference frames with it, so both pay only for the levels a block carries.
func (c *blockCoder) reconstruct(q *[blockLen]int32, nz uint64, pred, out *pixBlock, ch int) {
	freq, rec := &c.freq, &c.rec
	for m := nz; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		freq[i] = float64(q[i]) * c.steps[ch][i]
	}
	idct(freq, nz, rec)
	for i, r := range rec {
		v := int(r + float64(pred[i*3+ch]) + 0.5)
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		out[i*3+ch] = byte(v)
	}
}

// predict fills dst with the motion-compensated prediction of the block at
// (bx, by). Vectors are in half-pel units when c.halfPel is set; a vector
// with an odd component bilinearly interpolates the reference, any other
// reads it directly — by row copies when the displaced block lies inside
// the frame, pixel by pixel with border clamping otherwise.
func (c *blockCoder) predict(ref *frame.Frame, bx, by, mvx, mvy int, dst *pixBlock) {
	if c.halfPel {
		if (mvx|mvy)&1 != 0 {
			fx, fy := float64(float64(mvx)/2), float64(float64(mvy)/2)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					i := y*rowBytes + x*3
					dst[i], dst[i+1], dst[i+2] = ref.BilinearAt(float64(bx+x)+fx, float64(by+y)+fy)
				}
			}
			return
		}
		mvx, mvy = mvx/2, mvy/2
	}
	x0, y0 := bx+mvx, by+mvy
	if x0 >= 0 && y0 >= 0 && x0+blockSize <= ref.W && y0+blockSize <= ref.H {
		loadBlock(ref, x0, y0, dst)
		return
	}
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			i := y*rowBytes + x*3
			dst[i], dst[i+1], dst[i+2] = ref.At(x0+x, y0+y)
		}
	}
}

// Encode compresses one frame, returning its body and type; the header the
// body is decoded under is the segment's (EncodeSequence writes it). The
// encoder maintains the reconstructed reference internally, so encode drift
// matches the decoder exactly.
func (e *Encoder) Encode(f *frame.Frame) ([]byte, FrameType, error) {
	if f.W%blockSize != 0 || f.H%blockSize != 0 {
		return nil, 0, fmt.Errorf("codec: frame %dx%d not a multiple of the %d-pixel block size", f.W, f.H, blockSize)
	}
	if e.ref != nil && (e.ref.W != f.W || e.ref.H != f.H) {
		return nil, 0, fmt.Errorf("codec: frame size changed %dx%d -> %dx%d mid-stream", e.ref.W, e.ref.H, f.W, f.H)
	}
	ft := PFrame
	if e.ref == nil || e.count == 0 {
		ft = IFrame
	}
	if e.coder == nil {
		e.coder = newBlockCoder(e.cfg.Quality, e.cfg.ChromaCoding, e.cfg.HalfPel)
	}
	e.rc.reset()
	e.syn.startFrame(f.W / blockSize)
	// In chroma mode the whole prediction loop runs in YCbCr.
	src := f
	if e.cfg.ChromaCoding {
		src = display.ToYCbCr(f)
	}
	// Every block of the reconstruction is written, so the spare raster
	// needs no clearing.
	fe := frameEncoder{
		blockCoder:  e.coder,
		rc:          &e.rc,
		syn:         &e.syn,
		src:         src,
		ref:         e.ref,
		recon:       raster(&e.spare, f.W, f.H),
		searchRange: e.cfg.SearchRange,
	}
	if ft == PFrame {
		e.srcY, e.refY = lumaPlane(e.srcY, src), lumaPlane(e.refY, e.ref)
		fe.srcY, fe.refY = e.srcY, e.refY
	}
	for by := 0; by < f.H; by += blockSize {
		for bx := 0; bx < f.W; bx += blockSize {
			e.syn.startBlock(bx/blockSize, by/blockSize)
			if ft == IFrame {
				fe.intraBlock(bx, by)
			} else {
				fe.interBlock(bx, by)
			}
		}
	}
	e.ref, e.spare = fe.recon, e.ref
	e.count++
	if e.count >= e.cfg.GOP {
		e.count = 0
	}
	return append([]byte(nil), e.rc.bytes()...), ft, nil
}

// frameEncoder is the state of one Encode call.
type frameEncoder struct {
	*blockCoder
	rc          *rangeEncoder
	syn         *blockSyntax
	src, ref    *frame.Frame // ref is nil in an I-frame
	recon       *frame.Frame // what the decoder will reconstruct
	srcY, refY  []uint8      // luma planes of src and ref, P-frames only
	searchRange int
}

// intraBlock codes each channel's levels with the DC level replaced by its
// difference from the left block's; a channel whose list would then be
// empty is only its coded flag.
func (e *frameEncoder) intraBlock(bx, by int) {
	var px, out pixBlock
	loadBlock(e.src, bx, by, &px)
	var n neighbour
	for ch := 0; ch < 3; ch++ {
		var q [blockLen]int32
		nz := e.quantize(&px, &intraPred, ch, &q)
		dc := q[0]
		q[0] -= e.syn.left.dc[ch]
		n.dc[ch], n.coded[ch] = dc, q[0] != 0 || nz&^1 != 0
		e.rc.encode(e.syn.codedContext(ch, &n), b2u(n.coded[ch]))
		if n.coded[ch] {
			writeList(e.rc, e.syn.lists(false, ch), &q)
		}
		q[0] = dc
		e.reconstruct(&q, nz, &intraPred, &out, ch)
	}
	storeBlock(e.recon, bx, by, &out)
	e.syn.endBlock(n)
}

// interBlock quantizes all three channels before it writes anything: the
// skip flag and the coded-block pattern precede the coefficients they
// describe.
func (e *frameEncoder) interBlock(bx, by int) {
	// Motion vectors are coded in half-pel units when refinement is on,
	// integer pixels otherwise (the segment's HalfPel flag disambiguates).
	mvx, mvy := e.motionSearch(bx, by)
	if e.halfPel {
		mvx, mvy = e.refineHalfPel(bx, by, mvx, mvy)
	}
	var px, pred pixBlock
	loadBlock(e.src, bx, by, &px)
	e.predict(e.ref, bx, by, mvx, mvy, &pred)
	var q [3][blockLen]int32
	var nz [3]uint64
	cbp := uint64(0)
	for ch := range q {
		if nz[ch] = e.quantize(&px, &pred, ch, &q[ch]); nz[ch] != 0 {
			cbp |= 1 << ch
		}
	}
	skip := cbp == 0 && mvx == 0 && mvy == 0
	e.rc.encode(e.syn.skipContext(), b2u(skip))
	if skip {
		copyBlock(e.recon, e.ref, bx, by)
		e.syn.endBlock(neighbour{skip: true})
		return
	}
	n := neighbour{mvx: int32(mvx), mvy: int32(mvy)}
	px0, py0 := e.syn.mvPredictor()
	e.syn.writeMotion(e.rc, 0, n.mvx-px0)
	e.syn.writeMotion(e.rc, 1, n.mvy-py0)
	for ch := range q {
		e.rc.encode(e.syn.cbpContext(uint32(cbp), ch), uint32(cbp>>ch&1))
	}
	out := pred // an uncoded channel reconstructs to its prediction
	for ch := range q {
		if cbp&(1<<ch) != 0 {
			writeList(e.rc, e.syn.lists(true, ch), &q[ch])
			e.reconstruct(&q[ch], nz[ch], &pred, &out, ch)
		}
	}
	storeBlock(e.recon, bx, by, &out)
	e.syn.endBlock(n)
}

// luma601 is the integer BT.601 luma of frame.Luma, in [0, 255].
func luma601(r, g, b byte) int { return (299*int(r) + 587*int(g) + 114*int(b)) / 1000 }

// lumaPlane returns the luma of every pixel, row-major, so motion search
// reads one byte per sample. It writes into y, reallocated only when it is
// too short.
func lumaPlane(y []uint8, f *frame.Frame) []uint8 {
	if cap(y) < f.W*f.H {
		y = make([]uint8, f.W*f.H)
	}
	y = y[:f.W*f.H]
	for i := range y {
		y[i] = uint8(luma601(f.Pix[i*3], f.Pix[i*3+1], f.Pix[i*3+2]))
	}
	return y
}

// motionSearch finds the (dx, dy) within the search range minimizing the
// luma SAD between the source block and the reference; among equal SADs
// the first in raster order of (dy, dx) wins. A candidate stops summing at
// the first row that leaves its SAD no better than the best so far.
func (e *frameEncoder) motionSearch(bx, by int) (dx, dy int) {
	w, h := e.src.W, e.src.H
	var src [blockSize][blockSize]uint8
	for y := range src {
		src[y] = [blockSize]uint8(e.srcY[(by+y)*w+bx:])
	}
	bestSAD := int(^uint(0) >> 1)
	for cy := -e.searchRange; cy <= e.searchRange; cy++ {
		for cx := -e.searchRange; cx <= e.searchRange; cx++ {
			x0, y0 := bx+cx, by+cy
			var sad int
			if x0 >= 0 && y0 >= 0 && x0+blockSize <= w && y0+blockSize <= h {
				sad = blockSAD(&src, e.refY[y0*w+x0:], w, bestSAD)
			} else {
				for y := 0; y < blockSize && sad < bestSAD; y++ {
					refRow := e.refY[clampTo(y0+y, h-1)*w:][:w]
					for x, v := range src[y] {
						sad += absInt(int(v) - int(refRow[clampTo(x0+x, w-1)]))
					}
				}
			}
			if sad < bestSAD {
				bestSAD, dx, dy = sad, cx, cy
			}
		}
	}
	return dx, dy
}

// blockSAD returns the SAD between src and the 8×8 block of ref whose rows
// start stride apart, summing row by row and stopping before a row once
// the sum is no longer below limit.
func blockSAD(src *[blockSize][blockSize]uint8, ref []uint8, stride, limit int) (sad int) {
	for y := range src {
		if sad >= limit {
			break
		}
		s, r := &src[y], (*[blockSize]uint8)(ref[y*stride:])
		sad += absDiff(s[0], r[0]) + absDiff(s[1], r[1]) + absDiff(s[2], r[2]) + absDiff(s[3], r[3]) +
			absDiff(s[4], r[4]) + absDiff(s[5], r[5]) + absDiff(s[6], r[6]) + absDiff(s[7], r[7])
	}
	return sad
}

// absDiff returns |a − b| without a branch.
func absDiff(a, b uint8) int {
	d := int(a) - int(b)
	m := d >> (bits.UintSize - 1)
	return (d ^ m) - m
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// clampTo clamps v to [0, hi].
func clampTo(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

// refineHalfPel evaluates the 3×3 half-pel neighborhood around the integer
// motion vector and returns the best vector in half-pel units.
func (e *frameEncoder) refineHalfPel(bx, by, dx, dy int) (mvx, mvy int) {
	best := int(^uint(0) >> 1)
	mvx, mvy = 2*dx, 2*dy
	for hy := -1; hy <= 1; hy++ {
		for hx := -1; hx <= 1; hx++ {
			cx, cy := 2*dx+hx, 2*dy+hy
			var sad int
			for y := 0; y < blockSize && sad < best; y++ {
				srcRow := e.srcY[(by+y)*e.src.W+bx:][:blockSize]
				for x, s := range srcRow {
					sad += absInt(int(s) - luma601(e.ref.BilinearAt(
						float64(bx+x)+float64(float64(cx)/2),
						float64(by+y)+float64(float64(cy)/2))))
				}
			}
			if sad < best {
				best, mvx, mvy = sad, cx, cy
			}
		}
	}
	return mvx, mvy
}

// Decoder decompresses the frames of segments produced by EncodeSequence.
// Frames must be decoded in encode order; an I-frame resets the prediction
// chain, so a decoder outlives the segments of a stream. The zero value is
// ready to use.
//
// A Decoder owns the rasters it decodes into: two that alternate between
// reference and output, plus a third for the RGB output of chroma-coded
// streams. A frame is decoded into the raster that does not hold the
// reference, so the frame Decode returns is valid until the next Decode and
// must not be modified (Clone it to keep or change it). Rasters are
// reallocated only when the frame dimensions change, and every block of a
// frame is written (dimensions are multiples of the block size), so reuse
// needs no clearing. The block coder is kept while the segment header
// repeats.
type Decoder struct {
	ref   *frame.Frame // the last decoded frame: the next P-frame's reference
	spare *frame.Frame // the raster the next frame is decoded into
	rgb   *frame.Frame // RGB output of a chroma-coded frame

	coder *blockCoder
	hdr   Header // the header coder was built for
	rc    rangeDecoder
	syn   blockSyntax
}

// NewDecoder returns a fresh decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// raster returns *f, first reallocated as a w×h frame unless it is one.
func raster(f **frame.Frame, w, h int) *frame.Frame {
	if *f == nil || (*f).W != w || (*f).H != h {
		*f = frame.New(w, h)
	}
	return *f
}

// blockCoder returns the block coder for a segment header, checking the
// header and rebuilding the coder only when it differs from the previous
// frame's.
func (d *Decoder) blockCoder(h Header) (*blockCoder, error) {
	if d.coder == nil || d.hdr != h {
		if err := h.check(); err != nil {
			return nil, err
		}
		d.coder = newBlockCoder(h.Quality, h.ChromaCoding, h.HalfPel)
		d.hdr = h
	}
	return d.coder, nil
}

// Decode decompresses frame i of bs into the decoder's rasters under bs's
// header; the result is valid until the next Decode. A raster it allocates
// is bounded by the payload: a body too short for its blocks' floor is
// rejected first. A frame that fails to decode leaves the reference as it
// was.
func (d *Decoder) Decode(bs *Bitstream, i int) (*frame.Frame, error) {
	if i < 0 || i >= len(bs.Frames) || i >= len(bs.Types) {
		return nil, fmt.Errorf("codec: no frame %d in a %d-frame bitstream", i, len(bs.Frames))
	}
	ft, w, h := bs.Types[i], bs.W, bs.H
	if ft != IFrame && ft != PFrame {
		return nil, fmt.Errorf("codec: unknown frame type %q", byte(ft))
	}
	c, err := d.blockCoder(bs.Header)
	if err != nil {
		return nil, err
	}
	cost := int64(minIntraBlockCost)
	if ft == PFrame {
		if d.ref == nil {
			return nil, fmt.Errorf("codec: P-frame without reference")
		}
		if d.ref.W != w || d.ref.H != h {
			return nil, fmt.Errorf("codec: P-frame size %dx%d mismatches reference %dx%d", w, h, d.ref.W, d.ref.H)
		}
		cost = minInterBlockCost
	}
	body := bs.Frames[i]
	if blocks := int64(w/blockSize) * int64(h/blockSize); blocks*cost >= int64(len(body))*8<<16 {
		return nil, errBitstream
	}
	out := raster(&d.spare, w, h)
	d.rc.reset(body)
	d.syn.startFrame(w / blockSize)
	for by := 0; by < h; by += blockSize {
		for bx := 0; bx < w; bx += blockSize {
			d.syn.startBlock(bx/blockSize, by/blockSize)
			var err error
			if ft == IFrame {
				c.decodeIntraBlock(&d.rc, &d.syn, out, bx, by)
			} else {
				err = c.decodeInterBlock(&d.rc, &d.syn, out, d.ref, bx, by)
			}
			if err != nil {
				return nil, err
			}
			if d.rc.overrun() {
				return nil, errBitstream
			}
		}
	}
	if err := d.rc.finish(); err != nil {
		return nil, err
	}
	d.ref, d.spare = out, d.ref
	if bs.ChromaCoding {
		rgb := raster(&d.rgb, w, h)
		display.ToRGBInto(rgb, out)
		return rgb, nil
	}
	return out, nil
}

// decodeIntraBlock reads each channel's coded flag and, if set, its list,
// whose DC level is the difference from the left block's.
func (c *blockCoder) decodeIntraBlock(r *rangeDecoder, s *blockSyntax, out *frame.Frame, bx, by int) {
	var px pixBlock
	var n neighbour
	for ch := 0; ch < 3; ch++ {
		var q [blockLen]int32
		var nz uint64
		n.coded[ch] = r.decode(s.codedContext(ch, &n)) == 1
		if n.coded[ch] {
			nz = readList(r, s.lists(false, ch), &q)
		}
		q[0] += s.left.dc[ch]
		n.dc[ch] = q[0]
		nz &^= 1
		if q[0] != 0 {
			nz |= 1
		}
		c.reconstruct(&q, nz, &intraPred, &px, ch)
	}
	storeBlock(out, bx, by, &px)
	s.endBlock(n)
}

// decodeInterBlock does only what the syntax says is there: a skipped
// block is eight row copies from the reference, an uncoded channel is a
// byte copy of its prediction, and only coded channels are dequantized
// and inverse-transformed.
func (c *blockCoder) decodeInterBlock(r *rangeDecoder, s *blockSyntax, out, ref *frame.Frame, bx, by int) error {
	if r.decode(s.skipContext()) == 1 {
		copyBlock(out, ref, bx, by)
		s.endBlock(neighbour{skip: true})
		return nil
	}
	px0, py0 := s.mvPredictor()
	n := neighbour{mvx: px0 + s.readMotion(r, 0), mvy: py0 + s.readMotion(r, 1)}
	if absInt(int(n.mvx)) > maxMotion || absInt(int(n.mvy)) > maxMotion {
		return errBitstream
	}
	var cbp uint32
	for ch := 0; ch < 3; ch++ {
		cbp |= r.decode(s.cbpContext(cbp, ch)) << ch
	}
	// An uncoded channel is its prediction; a coded one is rebuilt over
	// it in place (reconstruct reads each sample before it writes it).
	var px pixBlock
	c.predict(ref, bx, by, int(n.mvx), int(n.mvy), &px)
	for ch := 0; ch < 3; ch++ {
		if cbp&(1<<ch) == 0 {
			continue
		}
		var q [blockLen]int32
		nz := readList(r, s.lists(true, ch), &q)
		c.reconstruct(&q, nz, &px, &px, ch)
	}
	storeBlock(out, bx, by, &px)
	s.endBlock(n)
	return nil
}
