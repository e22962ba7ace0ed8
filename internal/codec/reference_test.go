package codec

import (
	"fmt"
	"math/bits"

	"evr/internal/display"
	"evr/internal/frame"
)

// The reference codec: the straightforward implementation the package
// shipped before the block kernels — one append per bit, per-pixel At/Set,
// Frame.Luma motion search, a dense decode that inverse-transforms every
// channel of every block with the dense inverse transform below — speaking
// the current block syntax. It shares only the forward DCT, the zigzag
// table and quantStep with the production code, so the differential tests
// compare two independent routes from pixels to bits and back.

type refBitWriter struct {
	buf  []byte
	cur  byte
	nCur uint
}

func (w *refBitWriter) writeBit(b uint) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

func (w *refBitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.writeBit(uint(v >> uint(i)))
	}
}

func (w *refBitWriter) writeUE(v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x))
	w.writeBits(0, n-1)
	w.writeBits(x, n)
}

func (w *refBitWriter) writeSE(v int32) {
	if v > 0 {
		w.writeUE(uint32(2*v - 1))
	} else {
		w.writeUE(uint32(-2 * v))
	}
}

func (w *refBitWriter) bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nCur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

type refBitReader struct {
	buf []byte
	pos int
	bit uint
}

func (r *refBitReader) readBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, errBitstream
	}
	b := uint(r.buf[r.pos]>>(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, nil
}

func (r *refBitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refBitReader) readUE() (uint32, error) {
	var zeros uint
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 32 {
			return 0, errBitstream
		}
	}
	rest, err := r.readBits(zeros)
	if err != nil {
		return 0, err
	}
	return uint32((uint64(1)<<zeros | rest) - 1), nil
}

func (r *refBitReader) readSE() (int32, error) {
	u, err := r.readUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2) + 1, nil
	}
	return -int32(u / 2), nil
}

type refBlock = [blockSize * blockSize]float64

// refFDCT is the dense 8×8 forward DCT: every sample, row pass then column
// pass, each sum begun at +0 and taken in ascending n. The production fdct
// skips all-zero rows and runs each pass's sums as separate chains, and must
// equal it bit for bit.
func refFDCT(in *refBlock, out *refBlock) {
	var tmp refBlock
	// Rows.
	for y := 0; y < blockSize; y++ {
		for k := 0; k < blockSize; k++ {
			var s float64
			for n := 0; n < blockSize; n++ {
				s += in[y*blockSize+n] * cosTable[k][n]
			}
			tmp[y*blockSize+k] = s
		}
	}
	// Columns.
	for x := 0; x < blockSize; x++ {
		for k := 0; k < blockSize; k++ {
			var s float64
			for n := 0; n < blockSize; n++ {
				s += tmp[n*blockSize+x] * cosTable[k][n]
			}
			out[k*blockSize+x] = s
		}
	}
}

// refIDCT is the dense 8×8 inverse DCT: every coefficient, column pass then
// row pass, each sum in ascending k. The production idct skips zero
// coefficients and must equal it bit for bit.
func refIDCT(in *refBlock, out *refBlock) {
	var tmp refBlock
	// Columns.
	for x := 0; x < blockSize; x++ {
		for n := 0; n < blockSize; n++ {
			var s float64
			for k := 0; k < blockSize; k++ {
				s += in[k*blockSize+x] * cosTable[k][n]
			}
			tmp[n*blockSize+x] = s
		}
	}
	// Rows.
	for y := 0; y < blockSize; y++ {
		for n := 0; n < blockSize; n++ {
			var s float64
			for k := 0; k < blockSize; k++ {
				s += tmp[y*blockSize+k] * cosTable[k][n]
			}
			out[y*blockSize+n] = s
		}
	}
}

func refChannelBlock(f *frame.Frame, bx, by, ch int, dst *refBlock) {
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			r, g, b := f.At(bx+x, by+y)
			dst[y*blockSize+x] = float64([3]byte{r, g, b}[ch])
		}
	}
}

func refStoreBlock(f *frame.Frame, bx, by, ch int, src *refBlock) {
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			v := int(src[y*blockSize+x] + 0.5)
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			r, g, b := f.At(bx+x, by+y)
			switch ch {
			case 0:
				f.Set(bx+x, by+y, byte(v), g, b)
			case 1:
				f.Set(bx+x, by+y, r, byte(v), b)
			default:
				f.Set(bx+x, by+y, r, g, byte(v))
			}
		}
	}
}

func refChQuality(cfg Config, ch int) int {
	q := cfg.Quality
	if cfg.ChromaCoding && ch > 0 {
		q *= 2
		if q > 64 {
			q = 64
		}
	}
	return q
}

// refQuantize transforms and quantizes spatial into q, leaving the
// dequantized coefficients' inverse transform in recon.
func refQuantize(spatial *refBlock, quality int, q *[blockSize * blockSize]int32, recon *refBlock) {
	var freq refBlock
	refFDCT(spatial, &freq)
	for ky := 0; ky < blockSize; ky++ {
		for kx := 0; kx < blockSize; kx++ {
			i := ky*blockSize + kx
			step := quantStep(ky, kx, quality)
			c := freq[i] / step
			if c >= 0 {
				q[i] = int32(c + 0.5)
			} else {
				q[i] = int32(c - 0.5)
			}
			freq[i] = float64(q[i]) * step
		}
	}
	refIDCT(&freq, recon)
}

// refLevels quantizes freq dividing every coefficient by its step and
// rounding half away from zero. The production levels skips the divide
// below step/4 and must equal it level for level.
func refLevels(freq, steps *[blockLen]float64, q *[blockLen]int32) (nz uint64) {
	for i, f := range freq {
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

func refWriteCoeffs(w *refBitWriter, q *[blockSize * blockSize]int32) {
	var runs []uint32
	var levels []int32
	run := uint32(0)
	for _, zi := range zigzag {
		if q[zi] == 0 {
			run++
			continue
		}
		runs = append(runs, run)
		levels = append(levels, q[zi])
		run = 0
	}
	if len(levels) == 0 {
		w.writeUE(64)
		return
	}
	for k := range levels {
		w.writeUE(runs[k])
		w.writeSE(levels[k])
		if k == len(levels)-1 {
			w.writeBit(1)
		} else {
			w.writeBit(0)
		}
	}
}

// refReadCoeffBlock entropy-decodes, dequantizes and inverse-transforms
// one block. Only an intra list may be the escape (no coefficient); a
// coded level is never zero.
func refReadCoeffBlock(r *refBitReader, quality int, intra bool, out *refBlock) error {
	var freq refBlock
	pos := 0
	for {
		run, err := r.readUE()
		if err != nil {
			return err
		}
		if pos == 0 && run == 64 {
			if !intra {
				return errBitstream
			}
			break
		}
		if uint64(pos)+uint64(run) >= blockSize*blockSize {
			return errBitstream
		}
		pos += int(run)
		level, err := r.readSE()
		if err != nil {
			return err
		}
		if level == 0 {
			return errBitstream
		}
		zi := zigzag[pos]
		freq[zi] = float64(level) * quantStep(zi/blockSize, zi%blockSize, quality)
		last, err := r.readBit()
		if err != nil {
			return err
		}
		if last == 1 {
			break
		}
		pos++
	}
	refIDCT(&freq, out)
	return nil
}

func refMotionSearch(src, ref *frame.Frame, bx, by, searchRange int) (dx, dy int) {
	bestSAD := int(^uint(0) >> 1)
	for cy := -searchRange; cy <= searchRange; cy++ {
		for cx := -searchRange; cx <= searchRange; cx++ {
			var sad int
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					sad += absInt(src.Luma(bx+x, by+y) - ref.Luma(bx+x+cx, by+y+cy))
				}
				if sad >= bestSAD {
					break
				}
			}
			if sad < bestSAD {
				bestSAD, dx, dy = sad, cx, cy
			}
		}
	}
	return dx, dy
}

func refRefineHalfPel(src, ref *frame.Frame, bx, by, dx, dy int) (mvx, mvy int) {
	best := int(^uint(0) >> 1)
	mvx, mvy = 2*dx, 2*dy
	for hy := -1; hy <= 1; hy++ {
		for hx := -1; hx <= 1; hx++ {
			cx, cy := 2*dx+hx, 2*dy+hy
			var sad int
			for y := 0; y < blockSize && sad < best; y++ {
				for x := 0; x < blockSize; x++ {
					r, g, b := ref.BilinearAt(
						float64(bx+x)+float64(cx)/2,
						float64(by+y)+float64(cy)/2)
					refLuma := (299*int(r) + 587*int(g) + 114*int(b)) / 1000
					sad += absInt(src.Luma(bx+x, by+y) - refLuma)
				}
			}
			if sad < best {
				best, mvx, mvy = sad, cx, cy
			}
		}
	}
	return mvx, mvy
}

func refPredict(ref *frame.Frame, bx, by, mvx, mvy, ch int, halfPel bool, dst *refBlock) {
	if !halfPel {
		refChannelBlock(ref, bx+mvx, by+mvy, ch, dst)
		return
	}
	fx := float64(mvx) / 2
	fy := float64(mvy) / 2
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			r, g, b := ref.BilinearAt(float64(bx+x)+fx, float64(by+y)+fy)
			dst[y*blockSize+x] = float64([3]byte{r, g, b}[ch])
		}
	}
}

// refEncoder mirrors Encoder with the reference kernels.
type refEncoder struct {
	cfg   Config
	ref   *frame.Frame
	count int
}

func (e *refEncoder) encode(f *frame.Frame) []byte {
	ft := PFrame
	if e.ref == nil || e.count == 0 {
		ft = IFrame
	}
	w := &refBitWriter{}
	src := f
	if e.cfg.ChromaCoding {
		src = display.ToYCbCr(f)
	}
	recon := frame.New(f.W, f.H)
	for by := 0; by < f.H; by += blockSize {
		for bx := 0; bx < f.W; bx += blockSize {
			if ft == IFrame {
				e.intraBlock(w, src, recon, bx, by)
			} else {
				e.interBlock(w, src, recon, bx, by)
			}
		}
	}
	e.ref = recon
	e.count++
	if e.count >= e.cfg.GOP {
		e.count = 0
	}
	return w.bytes()
}

func (e *refEncoder) intraBlock(w *refBitWriter, src, recon *frame.Frame, bx, by int) {
	for ch := 0; ch < 3; ch++ {
		var spatial, rec refBlock
		var q [blockSize * blockSize]int32
		refChannelBlock(src, bx, by, ch, &spatial)
		for i := range spatial {
			spatial[i] -= 128
		}
		refQuantize(&spatial, refChQuality(e.cfg, ch), &q, &rec)
		refWriteCoeffs(w, &q)
		for i := range rec {
			rec[i] += 128
		}
		refStoreBlock(recon, bx, by, ch, &rec)
	}
}

func (e *refEncoder) interBlock(w *refBitWriter, src, recon *frame.Frame, bx, by int) {
	mvx, mvy := refMotionSearch(src, e.ref, bx, by, e.cfg.SearchRange)
	if e.cfg.HalfPel {
		mvx, mvy = refRefineHalfPel(src, e.ref, bx, by, mvx, mvy)
	}
	var q [3][blockSize * blockSize]int32
	cbp := uint64(0)
	for ch := 0; ch < 3; ch++ {
		var spatial, pred, rec refBlock
		refChannelBlock(src, bx, by, ch, &spatial)
		refPredict(e.ref, bx, by, mvx, mvy, ch, e.cfg.HalfPel, &pred)
		for i := range spatial {
			spatial[i] -= pred[i]
		}
		refQuantize(&spatial, refChQuality(e.cfg, ch), &q[ch], &rec)
		for _, level := range q[ch] {
			if level != 0 {
				cbp |= 1 << ch
			}
		}
		// Dense reconstruction whatever the syntax will say: a zero
		// residual must come out as the prediction.
		for i := range rec {
			rec[i] += pred[i]
		}
		refStoreBlock(recon, bx, by, ch, &rec)
	}
	if cbp == 0 && mvx == 0 && mvy == 0 {
		w.writeBit(1)
		return
	}
	w.writeBit(0)
	w.writeSE(int32(mvx))
	w.writeSE(int32(mvy))
	w.writeBits(cbp, 3)
	for ch := 0; ch < 3; ch++ {
		if cbp&(1<<ch) != 0 {
			refWriteCoeffs(w, &q[ch])
		}
	}
}

func refEncodeSequence(cfg Config, frames []*frame.Frame) [][]byte {
	enc := &refEncoder{cfg: cfg}
	var out [][]byte
	for _, f := range frames {
		out = append(out, enc.encode(f))
	}
	return out
}

// refStats is what the reference decoder saw in the P-frames it decoded.
type refStats struct {
	blocks, skips int
	cbp           [8]int // non-skipped blocks by coded-block pattern
	// Non-skipped blocks whose displaced 8×8 lies partly outside the
	// frame, by the border crossed.
	left, right, top, bottom int
}

func (s *refStats) add(o refStats) {
	s.blocks += o.blocks
	s.skips += o.skips
	s.left += o.left
	s.right += o.right
	s.top += o.top
	s.bottom += o.bottom
	for p, n := range o.cbp {
		s.cbp[p] += n
	}
}

func (s refStats) skipShare() float64 { return float64(s.skips) / float64(s.blocks) }

// emptyChannelShare is the fraction of block-channels with no coefficient.
func (s refStats) emptyChannelShare() float64 {
	empty := 3 * s.skips
	for pattern, n := range s.cbp {
		empty += n * (3 - bits.OnesCount(uint(pattern)))
	}
	return float64(empty) / float64(3*s.blocks)
}

// refDecoder is the dense decoder: every block, skipped or not, goes
// through predict → inverse transform → add → per-pixel store.
type refDecoder struct {
	ref   *frame.Frame
	stats refStats
}

// decode decodes frame i of bs; the segment header's checks are
// ParseSegment's, and the reference repeats them.
func (d *refDecoder) decode(bs *Bitstream, i int) (*frame.Frame, error) {
	data := bs.Frames[i]
	r := &refBitReader{buf: data}
	ft, w, h := bs.Types[i], bs.W, bs.H
	cfg := Config{Quality: bs.Quality, ChromaCoding: bs.ChromaCoding, HalfPel: bs.HalfPel}
	if (ft != IFrame && ft != PFrame) || w <= 0 || h <= 0 || w%blockSize != 0 || h%blockSize != 0 ||
		cfg.Quality < 1 || cfg.Quality > 64 {
		return nil, errBitstream
	}
	if ft == PFrame && (d.ref == nil || d.ref.W != w || d.ref.H != h) {
		return nil, fmt.Errorf("reference: P-frame without a matching reference")
	}
	// Every block takes at least a bit; without this a fuzzed header makes
	// the reference allocate gigabytes before it runs out of payload.
	if (w/blockSize)*(h/blockSize) > 8*len(data) {
		return nil, errBitstream
	}
	out := frame.New(w, h)
	for by := 0; by < h; by += blockSize {
		for bx := 0; bx < w; bx += blockSize {
			var err error
			if ft == IFrame {
				err = d.intraBlock(r, out, bx, by, cfg)
			} else {
				err = d.interBlock(r, out, bx, by, cfg)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	d.ref = out
	if cfg.ChromaCoding {
		return display.ToRGB(out), nil
	}
	return out, nil
}

func (d *refDecoder) intraBlock(r *refBitReader, out *frame.Frame, bx, by int, cfg Config) error {
	for ch := 0; ch < 3; ch++ {
		var rec refBlock
		if err := refReadCoeffBlock(r, refChQuality(cfg, ch), true, &rec); err != nil {
			return err
		}
		for i := range rec {
			rec[i] += 128
		}
		refStoreBlock(out, bx, by, ch, &rec)
	}
	return nil
}

func (d *refDecoder) interBlock(r *refBitReader, out *frame.Frame, bx, by int, cfg Config) error {
	skip, err := r.readBit()
	if err != nil {
		return err
	}
	d.stats.blocks++
	var mvx, mvy int32
	var cbp uint64
	if skip == 1 {
		d.stats.skips++
	} else {
		if mvx, err = r.readSE(); err != nil {
			return err
		}
		if mvy, err = r.readSE(); err != nil {
			return err
		}
		if absInt(int(mvx)) > 128 || absInt(int(mvy)) > 128 {
			return errBitstream
		}
		if cbp, err = r.readBits(3); err != nil {
			return err
		}
		d.stats.cbp[cbp]++
		// Where the displaced block lies, in half-pel units either way.
		x0, y0, x1, y1 := 2*bx, 2*by, 2*(bx+blockSize), 2*(by+blockSize)
		if cfg.HalfPel {
			x0, y0, x1, y1 = x0+int(mvx), y0+int(mvy), x1+int(mvx), y1+int(mvy)
		} else {
			x0, y0, x1, y1 = x0+2*int(mvx), y0+2*int(mvy), x1+2*int(mvx), y1+2*int(mvy)
		}
		if x0 < 0 {
			d.stats.left++
		}
		if y0 < 0 {
			d.stats.top++
		}
		if x1 > 2*out.W {
			d.stats.right++
		}
		if y1 > 2*out.H {
			d.stats.bottom++
		}
	}
	for ch := 0; ch < 3; ch++ {
		var pred, rec refBlock
		if cbp&(1<<ch) != 0 {
			if err := refReadCoeffBlock(r, refChQuality(cfg, ch), false, &rec); err != nil {
				return err
			}
		} else {
			var zero refBlock
			refIDCT(&zero, &rec)
		}
		refPredict(d.ref, bx, by, int(mvx), int(mvy), ch, cfg.HalfPel, &pred)
		for i := range rec {
			rec[i] += pred[i]
		}
		refStoreBlock(out, bx, by, ch, &rec)
	}
	return nil
}

// refDecodeSequence decodes a bitstream with the reference decoder.
func refDecodeSequence(bs *Bitstream) ([]*frame.Frame, refStats, error) {
	dec := &refDecoder{}
	var out []*frame.Frame
	for i := range bs.Frames {
		f, err := dec.decode(bs, i)
		if err != nil {
			return nil, refStats{}, err
		}
		out = append(out, f)
	}
	return out, dec.stats, nil
}
