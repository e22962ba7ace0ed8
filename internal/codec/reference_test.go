package codec

import (
	"fmt"
	"math/big"
	"math/bits"

	"evr/internal/display"
	"evr/internal/frame"
)

// The reference codec: the straightforward implementation the package
// shipped before the block kernels — per-pixel At/Set, Frame.Luma motion
// search, a dense decode that inverse-transforms every channel of every
// block with the dense inverse transform below — speaking the current
// syntax through an entropy layer written separately from the production
// one: contexts are named, not laid out in arrays, the encoder keeps its
// code value as a big integer (so carries need no bookkeeping), and the
// band table is spelled out. It shares only the forward DCT, the zigzag
// table, quantStep and the coder's constants with the production code, so
// the differential tests compare two independent routes from pixels to
// bits and back.

// refBand is the context band of each zigzag position below 63.
var refBand = [...]int{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 9, 9, 10, 10, 10, 11, 11, 11, 12, 12, 12, 12,
	13, 13, 13, 13, 13, 13, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
}

// refModel is one adaptive bin model: p is the probability of a 0 bin in
// 1/4096ths, n the bins it has coded.
type refModel struct{ p, n int }

// adapt moves the model toward bin: shift 1 for its first bin, 2 for the
// next three, 3 for the six after, 4 up to its 21st, then 5; p stays within
// [32, 4064].
func (m *refModel) adapt(bin int) {
	shift := 5
	switch {
	case m.n < 1:
		shift = 1
	case m.n < 4:
		shift = 2
	case m.n < 10:
		shift = 3
	case m.n < 21:
		shift = 4
	}
	m.n++
	if bin == 0 {
		m.p += (4096 - m.p) >> shift
	} else {
		m.p -= m.p >> shift
	}
	m.p = min(max(m.p, 32), 4064)
}

// refModels are a frame's contexts by name, each created at p = 1/2 on
// first use.
type refModels map[string]*refModel

func (ms refModels) get(format string, args ...any) *refModel {
	name := fmt.Sprintf(format, args...)
	m, ok := ms[name]
	if !ok {
		m = &refModel{p: 2048}
		ms[name] = m
	}
	return m
}

// refRangeEncoder keeps the whole code value: low is the bottom of the
// interval, scaled by 256 at every renormalisation, so a carry is just an
// addition.
type refRangeEncoder struct {
	low    *big.Int
	rng    uint64
	shifts int
	models refModels
}

func newRefRangeEncoder() *refRangeEncoder {
	return &refRangeEncoder{low: new(big.Int), rng: 0xFFFFFFFF, models: refModels{}}
}

func (e *refRangeEncoder) renormalise() {
	for e.rng < 1<<24 {
		e.rng <<= 8
		e.low.Lsh(e.low, 8)
		e.shifts++
	}
}

func (e *refRangeEncoder) bin(m *refModel, bin int) {
	bound := (e.rng >> 12) * uint64(m.p)
	if bin == 0 {
		e.rng = bound
	} else {
		e.low.Add(e.low, new(big.Int).SetUint64(bound))
		e.rng -= bound
	}
	m.adapt(bin)
	e.renormalise()
}

func (e *refRangeEncoder) bypass(bin int) {
	e.rng >>= 1
	if bin == 1 {
		e.low.Add(e.low, new(big.Int).SetUint64(e.rng))
	}
	e.renormalise()
}

// bytes picks the code value low rounded up to a multiple of 2^24: as a
// number of 4 + shifts bytes its last three are zero, and the body is the
// others.
func (e *refRangeEncoder) bytes() []byte {
	v := new(big.Int).Add(e.low, big.NewInt(1<<24-1))
	v.Rsh(v, 24)
	out := make([]byte, e.shifts+1)
	return v.FillBytes(out)
}

func (e *refRangeEncoder) expGolomb(u int) {
	n := bits.Len(uint(u+1)) - 1
	for i := 0; i < n; i++ {
		e.bypass(1)
	}
	e.bypass(0)
	for i := n - 1; i >= 0; i-- {
		e.bypass((u + 1) >> i & 1)
	}
}

func (e *refRangeEncoder) sign(v int) {
	if v < 0 {
		e.bypass(1)
	} else {
		e.bypass(0)
	}
}

// refRangeDecoder reads a body as the reference encoder writes it: four
// bytes of lookahead, zeros for up to three bytes past the end, and the
// body must end exactly there.
type refRangeDecoder struct {
	data      []byte
	pos       int
	rng, code uint64
	err       error
	models    refModels
}

func newRefRangeDecoder(data []byte) *refRangeDecoder {
	d := &refRangeDecoder{data: data, rng: 0xFFFFFFFF, models: refModels{}}
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | d.readByte()
	}
	if d.code >= d.rng {
		d.err = errBitstream
	}
	return d
}

func (d *refRangeDecoder) readByte() uint64 {
	if d.pos >= len(d.data)+3 {
		d.err = errBitstream
		return 0
	}
	d.pos++
	if d.pos <= len(d.data) {
		return uint64(d.data[d.pos-1])
	}
	return 0
}

func (d *refRangeDecoder) renormalise() {
	for d.rng < 1<<24 {
		d.rng <<= 8
		d.code = d.code<<8 | d.readByte()
	}
}

func (d *refRangeDecoder) bin(m *refModel) int {
	bound := (d.rng >> 12) * uint64(m.p)
	bin := 0
	if d.code < bound {
		d.rng = bound
	} else {
		d.code -= bound
		d.rng -= bound
		bin = 1
	}
	m.adapt(bin)
	d.renormalise()
	return bin
}

func (d *refRangeDecoder) bypass() int {
	d.rng >>= 1
	bin := 0
	if d.code >= d.rng {
		d.code -= d.rng
		bin = 1
		if d.code >= d.rng {
			d.err = errBitstream
		}
	}
	d.renormalise()
	return bin
}

func (d *refRangeDecoder) expGolomb() int {
	n := 0
	for d.bypass() == 1 {
		n++
		if n > 20 {
			d.err = errBitstream
			return 0
		}
	}
	x := 1
	for i := 0; i < n; i++ {
		x = x<<1 | d.bypass()
	}
	return x - 1
}

func (d *refRangeDecoder) signed(mag int) int {
	if d.bypass() == 1 {
		return -mag
	}
	return mag
}

// refKind names the list contexts of channel ch.
func refKind(inter bool, ch int) string {
	kind := "intra"
	if inter {
		kind = "inter"
	}
	if ch == 0 {
		return kind + "/luma"
	}
	return kind + "/chroma"
}

// refBlockInfo is what the reference codecs remember of a coded block.
type refBlockInfo struct {
	skip     bool
	mvx, mvy int
	coded    [3]bool
	dc       [3]int
}

// refNeighbours is a frame's block grid of refBlockInfo.
type refNeighbours struct {
	cols, rows int
	info       []refBlockInfo
}

func newRefNeighbours(w, h int) *refNeighbours {
	n := &refNeighbours{cols: w / blockSize, rows: h / blockSize}
	n.info = make([]refBlockInfo, n.cols*n.rows)
	return n
}

// at returns the block at (col, row) and whether it lies inside the frame.
func (n *refNeighbours) at(col, row int) (refBlockInfo, bool) {
	if col < 0 || row < 0 || col >= n.cols || row >= n.rows {
		return refBlockInfo{}, false
	}
	return n.info[row*n.cols+col], true
}

func (n *refNeighbours) set(col, row int, b refBlockInfo) { n.info[row*n.cols+col] = b }

// skipModel: skipped neighbours left and top, outside the frame counting as
// skipped.
func (n *refNeighbours) skipModel(ms refModels, col, row int) *refModel {
	count := 0
	if left, in := n.at(col-1, row); !in || left.skip {
		count++
	}
	if top, in := n.at(col, row-1); !in || top.skip {
		count++
	}
	return ms.get("skip/%d", count)
}

// predictor: the left vector on the first row, else the median of left,
// top and top-right, a block outside the frame counting as (0, 0).
func (n *refNeighbours) predictor(col, row int) (int, int) {
	left, _ := n.at(col-1, row)
	if row == 0 {
		return left.mvx, left.mvy
	}
	top, _ := n.at(col, row-1)
	topRight, _ := n.at(col+1, row-1)
	median := func(a, b, c int) int {
		s := []int{a, b, c}
		if s[0] > s[1] {
			s[0], s[1] = s[1], s[0]
		}
		if s[1] > s[2] {
			s[1], s[2] = s[2], s[1]
		}
		if s[0] > s[1] {
			s[0], s[1] = s[1], s[0]
		}
		return s[1]
	}
	return median(left.mvx, top.mvx, topRight.mvx), median(left.mvy, top.mvy, topRight.mvy)
}

// codedModel: whether the left block coded channel ch, plus, past channel
// 0, whether this block coded channel ch−1.
func (n *refNeighbours) codedModel(ms refModels, col, row, ch int, this refBlockInfo) *refModel {
	count := 0
	if left, _ := n.at(col-1, row); left.coded[ch] {
		count++
	}
	if ch > 0 && this.coded[ch-1] {
		count++
	}
	part := "luma"
	if ch > 0 {
		part = "chroma"
	}
	return ms.get("coded/%s/%d", part, count)
}

// refCBPModel: channel 0 on its own, channels 1 and 2 by whether the
// previous channel is coded.
func refCBPModel(ms refModels, ch, cbp int) *refModel {
	if ch == 0 {
		return ms.get("cbp/0")
	}
	return ms.get("cbp/%d/after %d", ch, cbp>>(ch-1)&1)
}

// refWriteList writes a coded channel's levels in zigzag order.
func refWriteList(e *refRangeEncoder, kind string, q *[blockLen]int32) {
	var levels []int // by zigzag position
	last := -1
	for k, zi := range zigzag {
		levels = append(levels, int(q[zi]))
		if q[zi] != 0 {
			last = k
		}
	}
	for k := 0; k < 63; k++ {
		sig := 0
		if levels[k] != 0 {
			sig = 1
		}
		e.bin(e.models.get("%s/sig/%d", kind, refBand[k]), sig)
		if sig == 1 {
			if k == last {
				e.bin(e.models.get("%s/last/%d", kind, refBand[k]), 1)
				break
			}
			e.bin(e.models.get("%s/last/%d", kind, refBand[k]), 0)
		}
	}
	eq1, gt1 := 0, 0
	for k := last; k >= 0; k-- {
		level := levels[k]
		if level == 0 {
			continue
		}
		mag := max(level, -level)
		first := 0
		if gt1 == 0 {
			first = min(eq1+1, 4)
		}
		if mag == 1 {
			e.bin(e.models.get("%s/gt1/%d", kind, first), 0)
			eq1++
		} else {
			e.bin(e.models.get("%s/gt1/%d", kind, first), 1)
			rest := e.models.get("%s/gtN/%d", kind, min(gt1, 4))
			// Magnitudes 2 to 14 end on a 0 bin; 15 and up spend thirteen 1
			// bins and an exp-Golomb suffix.
			for m := 2; m < mag && m < 15; m++ {
				e.bin(rest, 1)
			}
			if mag < 15 {
				e.bin(rest, 0)
			} else {
				e.expGolomb(mag - 15)
			}
			gt1++
		}
		e.sign(level)
	}
}

// refReadList reads a coded channel's levels into freq, dequantized with
// the steps of quality.
func refReadList(d *refRangeDecoder, kind string, q *[blockLen]int32) {
	var positions []int
	k := 0
	for ; k < 63; k++ {
		if d.bin(d.models.get("%s/sig/%d", kind, refBand[k])) == 1 {
			positions = append(positions, k)
			if d.bin(d.models.get("%s/last/%d", kind, refBand[k])) == 1 {
				break
			}
		}
	}
	if k == 63 {
		positions = append(positions, 63)
	}
	eq1, gt1 := 0, 0
	for j := len(positions) - 1; j >= 0; j-- {
		first := 0
		if gt1 == 0 {
			first = min(eq1+1, 4)
		}
		mag := 1
		if d.bin(d.models.get("%s/gt1/%d", kind, first)) == 1 {
			mag = 2
			rest := d.models.get("%s/gtN/%d", kind, min(gt1, 4))
			for mag < 15 && d.bin(rest) == 1 {
				mag++
			}
			if mag == 15 {
				mag += d.expGolomb()
			}
			gt1++
		} else {
			eq1++
		}
		q[zigzag[positions[j]]] = int32(d.signed(mag))
	}
}

// refWriteMotion writes one component's difference from its predictor.
func refWriteMotion(e *refRangeEncoder, comp string, diff int) {
	if diff == 0 {
		e.bin(e.models.get("mvzero/%s", comp), 0)
		return
	}
	e.bin(e.models.get("mvzero/%s", comp), 1)
	mag := max(diff, -diff)
	// |d| − 1 in up to eight unary bins, then an exp-Golomb suffix.
	for i := 0; i < mag-1 && i < 8; i++ {
		e.bin(e.models.get("mv/%s/%d", comp, min(i, 3)), 1)
	}
	if mag-1 < 8 {
		e.bin(e.models.get("mv/%s/%d", comp, min(mag-1, 3)), 0)
	} else {
		e.expGolomb(mag - 1 - 8)
	}
	e.sign(diff)
}

func refReadMotion(d *refRangeDecoder, comp string) int {
	if d.bin(d.models.get("mvzero/%s", comp)) == 0 {
		return 0
	}
	v := 0
	for v < 8 && d.bin(d.models.get("mv/%s/%d", comp, min(v, 3))) == 1 {
		v++
	}
	if v == 8 {
		v += d.expGolomb()
	}
	return d.signed(v + 1)
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
				s += float64(in[y*blockSize+n] * cosTable[k][n])
			}
			tmp[y*blockSize+k] = s
		}
	}
	// Columns.
	for x := 0; x < blockSize; x++ {
		for k := 0; k < blockSize; k++ {
			var s float64
			for n := 0; n < blockSize; n++ {
				s += float64(tmp[n*blockSize+x] * cosTable[k][n])
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
				s += float64(in[k*blockSize+x] * cosTable[k][n])
			}
			tmp[n*blockSize+x] = s
		}
	}
	// Rows.
	for y := 0; y < blockSize; y++ {
		for n := 0; n < blockSize; n++ {
			var s float64
			for k := 0; k < blockSize; k++ {
				s += float64(tmp[y*blockSize+k] * cosTable[k][n])
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
						float64(bx+x)+float64(float64(cx)/2),
						float64(by+y)+float64(float64(cy)/2))
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
	fx := float64(float64(mvx) / 2)
	fy := float64(float64(mvy) / 2)
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
	enc := newRefRangeEncoder()
	blocks := newRefNeighbours(f.W, f.H)
	src := f
	if e.cfg.ChromaCoding {
		src = display.ToYCbCr(f)
	}
	recon := frame.New(f.W, f.H)
	for by := 0; by < f.H; by += blockSize {
		for bx := 0; bx < f.W; bx += blockSize {
			if ft == IFrame {
				e.intraBlock(enc, blocks, src, recon, bx, by)
			} else {
				e.interBlock(enc, blocks, src, recon, bx, by)
			}
		}
	}
	e.ref = recon
	e.count++
	if e.count >= e.cfg.GOP {
		e.count = 0
	}
	return enc.bytes()
}

func (e *refEncoder) intraBlock(enc *refRangeEncoder, blocks *refNeighbours, src, recon *frame.Frame, bx, by int) {
	col, row := bx/blockSize, by/blockSize
	left, _ := blocks.at(col-1, row)
	var this refBlockInfo
	for ch := 0; ch < 3; ch++ {
		var spatial, rec refBlock
		var q [blockSize * blockSize]int32
		refChannelBlock(src, bx, by, ch, &spatial)
		for i := range spatial {
			spatial[i] -= 128
		}
		refQuantize(&spatial, refChQuality(e.cfg, ch), &q, &rec)
		for i := range rec {
			rec[i] += 128
		}
		refStoreBlock(recon, bx, by, ch, &rec)
		// The list carries the DC level's difference from the left block's.
		this.dc[ch] = int(q[0])
		q[0] -= int32(left.dc[ch])
		for _, level := range q {
			if level != 0 {
				this.coded[ch] = true
			}
		}
		model := blocks.codedModel(enc.models, col, row, ch, this)
		if !this.coded[ch] {
			enc.bin(model, 0)
			continue
		}
		enc.bin(model, 1)
		refWriteList(enc, refKind(false, ch), &q)
	}
	blocks.set(col, row, this)
}

func (e *refEncoder) interBlock(enc *refRangeEncoder, blocks *refNeighbours, src, recon *frame.Frame, bx, by int) {
	col, row := bx/blockSize, by/blockSize
	mvx, mvy := refMotionSearch(src, e.ref, bx, by, e.cfg.SearchRange)
	if e.cfg.HalfPel {
		mvx, mvy = refRefineHalfPel(src, e.ref, bx, by, mvx, mvy)
	}
	var q [3][blockSize * blockSize]int32
	cbp := 0
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
	skipModel := blocks.skipModel(enc.models, col, row)
	if cbp == 0 && mvx == 0 && mvy == 0 {
		enc.bin(skipModel, 1)
		blocks.set(col, row, refBlockInfo{skip: true})
		return
	}
	enc.bin(skipModel, 0)
	px, py := blocks.predictor(col, row)
	refWriteMotion(enc, "x", mvx-px)
	refWriteMotion(enc, "y", mvy-py)
	for ch := 0; ch < 3; ch++ {
		enc.bin(refCBPModel(enc.models, ch, cbp), cbp>>ch&1)
	}
	for ch := 0; ch < 3; ch++ {
		if cbp&(1<<ch) != 0 {
			refWriteList(enc, refKind(true, ch), &q[ch])
		}
	}
	blocks.set(col, row, refBlockInfo{mvx: mvx, mvy: mvy})
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
	ft, w, h := bs.Types[i], bs.W, bs.H
	cfg := Config{Quality: bs.Quality, ChromaCoding: bs.ChromaCoding, HalfPel: bs.HalfPel}
	if (ft != IFrame && ft != PFrame) || w <= 0 || h <= 0 || w%blockSize != 0 || h%blockSize != 0 ||
		cfg.Quality < 1 || cfg.Quality > 64 {
		return nil, errBitstream
	}
	if ft == PFrame && (d.ref == nil || d.ref.W != w || d.ref.H != h) {
		return nil, fmt.Errorf("reference: P-frame without a matching reference")
	}
	// Every block takes at least one context bin (three in an I-frame),
	// each removing at least minBinCost/2^16 bits of range, and a body of
	// n bytes holds less than 8n bits of them; without this a fuzzed
	// header makes the reference allocate gigabytes before it runs out of
	// payload.
	bins := (w / blockSize) * (h / blockSize)
	if ft == IFrame {
		bins *= 3
	}
	if float64(bins)*minBinCost/(1<<16) >= float64(8*len(data)) {
		return nil, errBitstream
	}
	dec := newRefRangeDecoder(data)
	blocks := newRefNeighbours(w, h)
	out := frame.New(w, h)
	for by := 0; by < h && dec.err == nil; by += blockSize {
		for bx := 0; bx < w && dec.err == nil; bx += blockSize {
			var err error
			if ft == IFrame {
				d.intraBlock(dec, blocks, out, bx, by, cfg)
			} else {
				err = d.interBlock(dec, blocks, out, bx, by, cfg)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	if dec.err != nil {
		return nil, dec.err
	}
	if dec.pos != len(data)+3 {
		return nil, fmt.Errorf("reference: the bins end %d bytes before the body", len(data)+3-dec.pos)
	}
	d.ref = out
	if cfg.ChromaCoding {
		return display.ToRGB(out), nil
	}
	return out, nil
}

func (d *refDecoder) intraBlock(dec *refRangeDecoder, blocks *refNeighbours, out *frame.Frame, bx, by int, cfg Config) {
	col, row := bx/blockSize, by/blockSize
	left, _ := blocks.at(col-1, row)
	var this refBlockInfo
	for ch := 0; ch < 3; ch++ {
		var q [blockLen]int32
		if dec.bin(blocks.codedModel(dec.models, col, row, ch, this)) == 1 {
			this.coded[ch] = true
			refReadList(dec, refKind(false, ch), &q)
		}
		q[0] += int32(left.dc[ch])
		this.dc[ch] = int(q[0])
		var rec refBlock
		refDequantize(&q, refChQuality(cfg, ch), &rec)
		for i := range rec {
			rec[i] += 128
		}
		refStoreBlock(out, bx, by, ch, &rec)
	}
	blocks.set(col, row, this)
}

func (d *refDecoder) interBlock(dec *refRangeDecoder, blocks *refNeighbours, out *frame.Frame, bx, by int, cfg Config) error {
	col, row := bx/blockSize, by/blockSize
	d.stats.blocks++
	var this refBlockInfo
	var cbp int
	if dec.bin(blocks.skipModel(dec.models, col, row)) == 1 {
		d.stats.skips++
		this.skip = true
	} else {
		px, py := blocks.predictor(col, row)
		this.mvx = px + refReadMotion(dec, "x")
		this.mvy = py + refReadMotion(dec, "y")
		if absInt(this.mvx) > 128 || absInt(this.mvy) > 128 {
			return errBitstream
		}
		for ch := 0; ch < 3; ch++ {
			cbp |= dec.bin(refCBPModel(dec.models, ch, cbp)) << ch
		}
		d.stats.cbp[cbp]++
		// Where the displaced block lies, in half-pel units either way.
		x0, y0, x1, y1 := 2*bx, 2*by, 2*(bx+blockSize), 2*(by+blockSize)
		mvx, mvy := this.mvx, this.mvy
		if !cfg.HalfPel {
			mvx, mvy = 2*mvx, 2*mvy
		}
		x0, y0, x1, y1 = x0+mvx, y0+mvy, x1+mvx, y1+mvy
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
		var q [blockLen]int32
		if cbp&(1<<ch) != 0 {
			refReadList(dec, refKind(true, ch), &q)
		}
		var pred, rec refBlock
		refDequantize(&q, refChQuality(cfg, ch), &rec)
		refPredict(d.ref, bx, by, this.mvx, this.mvy, ch, cfg.HalfPel, &pred)
		for i := range rec {
			rec[i] += pred[i]
		}
		refStoreBlock(out, bx, by, ch, &rec)
	}
	blocks.set(col, row, this)
	return nil
}

// refDequantize scales levels by their steps and inverse-transforms them.
func refDequantize(q *[blockLen]int32, quality int, out *refBlock) {
	var freq refBlock
	for i, level := range q {
		freq[i] = float64(level) * quantStep(i/blockSize, i%blockSize, quality)
	}
	refIDCT(&freq, out)
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
