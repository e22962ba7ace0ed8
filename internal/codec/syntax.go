package codec

import "math/bits"

// The binarisation of a frame body: how each syntax element of the package
// comment becomes bins, and which adaptive context codes each bin. The
// encoder's write* and the decoder's read* functions are mirror images;
// reference_test.go holds a separately written decoder of the same syntax.

const (
	// nBands is the number of zigzag-position bands the significance and
	// last flags are modelled in.
	nBands = 16
	// levelPrefix is the unary prefix length of |level|−1; larger
	// magnitudes continue in an exp-Golomb bypass suffix.
	levelPrefix = 14
	// mvPrefix is the same for |motion difference|−1.
	mvPrefix = 8
	// maxSuffixBits bounds an exp-Golomb suffix's prefix: no level or
	// motion difference the encoder writes comes near 2^maxSuffixBits.
	maxSuffixBits = 20
)

// bandOf maps a zigzag position below 63 to its context band.
var bandOf = func() (b [blockLen - 1]uint8) {
	ends := [nBands]int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 18, 22, 28, 38, blockLen - 1}
	band := 0
	for k := range b {
		if k >= ends[band] {
			band++
		}
		b[k] = uint8(band)
	}
	return b
}()

// listContexts models the coefficient lists of one kind of channel: intra
// or inter, luma (channel 0) or chroma.
type listContexts struct {
	sig, last [nBands]binContext
	gt1       [5]binContext // first bin of |level|−1, by the levels seen so far
	gtN       [5]binContext // the rest of its unary prefix
}

// frameContexts is every adaptive model of one frame body. Each body
// starts from newFrameContexts.
type frameContexts struct {
	skip   [3]binContext    // by skipped neighbours, left and top
	mvZero [2]binContext    // per component: the difference from the predictor is 0
	mvBins [2][4]binContext // per component: unary bins of |d|−1, the 4th shared by the rest
	cbp    [5]binContext    // channel 0; channels 1, 2 by whether the previous one is coded
	coded  [2][3]binContext // I-block channel flag: luma/chroma × coded neighbours
	lists  [2][2]listContexts
}

var newFrameContexts = func() (c frameContexts) {
	for _, s := range [][]binContext{c.skip[:], c.mvZero[:], c.mvBins[0][:], c.mvBins[1][:], c.cbp[:], c.coded[0][:], c.coded[1][:]} {
		for i := range s {
			s[i] = newBinContext
		}
	}
	for i := range c.lists {
		for j := range c.lists[i] {
			l := &c.lists[i][j]
			for _, s := range [][]binContext{l.sig[:], l.last[:], l.gt1[:], l.gtN[:]} {
				for k := range s {
					s[k] = newBinContext
				}
			}
		}
	}
	return c
}()

// neighbour is what a block leaves for the blocks right of and below it.
type neighbour struct {
	skip     bool
	mvx, mvy int32
	coded    [3]bool // I-blocks: which channels carry a list
	dc       [3]int32
}

// blockSyntax is the state both directions keep while they code one frame
// body: the contexts and the neighbours of the block being coded.
type blockSyntax struct {
	ctx   frameContexts
	above []neighbour // per block column: the last block coded in it
	left  neighbour
	col   int // block column of the block being coded
	row   int // and its block row
}

// startFrame resets the contexts and neighbours for a frame cols blocks
// wide, reusing above's storage.
func (s *blockSyntax) startFrame(cols int) {
	s.ctx = newFrameContexts
	if cap(s.above) < cols {
		s.above = make([]neighbour, cols)
	}
	s.above = s.above[:cols]
	clear(s.above)
}

// startBlock makes (col, row) the block being coded. A row starts with
// no left neighbour: no skip, no vector, no coded channel, DC 0.
func (s *blockSyntax) startBlock(col, row int) {
	s.col, s.row = col, row
	if col == 0 {
		s.left = neighbour{}
	}
}

// endBlock records the block just coded as a neighbour.
func (s *blockSyntax) endBlock(n neighbour) {
	s.above[s.col] = n
	s.left = n
}

// skipContext counts the skipped neighbours among left and top; a
// neighbour outside the frame counts as skipped.
func (s *blockSyntax) skipContext() *binContext {
	n := 0
	if s.col == 0 || s.left.skip {
		n++
	}
	if s.row == 0 || s.above[s.col].skip {
		n++
	}
	return &s.ctx.skip[n]
}

// mvPredictor is the component-wise median of the left, top and top-right
// vectors, a neighbour outside the frame counting as (0, 0); on the first
// row it is the left vector.
func (s *blockSyntax) mvPredictor() (px, py int32) {
	if s.row == 0 {
		return s.left.mvx, s.left.mvy
	}
	top := s.above[s.col]
	var tr neighbour
	if s.col+1 < len(s.above) {
		tr = s.above[s.col+1]
	}
	return median3(s.left.mvx, top.mvx, tr.mvx), median3(s.left.mvy, top.mvy, tr.mvy)
}

func median3(a, b, c int32) int32 {
	return max(min(a, b), min(max(a, b), c))
}

// codedContext models whether I-block channel ch carries a list, by whether
// the block to its left did and, past channel 0, whether this block's
// previous channel did.
func (s *blockSyntax) codedContext(ch int, n *neighbour) *binContext {
	k := 0
	if s.left.coded[ch] {
		k++
	}
	if ch > 0 && n.coded[ch-1] {
		k++
	}
	return &s.ctx.coded[min(ch, 1)][k]
}

// cbpContext models cbp bit ch given the bits below it.
func (s *blockSyntax) cbpContext(cbp uint32, ch int) *binContext {
	if ch == 0 {
		return &s.ctx.cbp[0]
	}
	return &s.ctx.cbp[2*ch-1+int(cbp>>(ch-1)&1)]
}

// lists returns the list contexts of channel ch.
func (s *blockSyntax) lists(inter bool, ch int) *listContexts {
	i := 0
	if inter {
		i = 1
	}
	return &s.ctx.lists[i][min(ch, 1)]
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// writeExpGolomb writes u as an order-0 exp-Golomb code of bypass bins: the
// bit length of u+1, less one, in unary (ones ended by a zero), then u+1
// below its leading bit.
func writeExpGolomb(e *rangeEncoder, u uint32) {
	x := u + 1
	n := bits.Len32(x) - 1
	e.bypass((1<<n-1)<<1, n+1)
	e.bypass(x, n)
}

func readExpGolomb(d *rangeDecoder) uint32 {
	n := 0
	for d.bypass(1) == 1 {
		if n++; n > maxSuffixBits {
			d.bad = true
			return 0
		}
	}
	return (1<<n | d.bypass(n)) - 1
}

// writeSign writes v's sign as a bypass bin (1: negative).
func writeSign(e *rangeEncoder, v int32) { e.bypass(b2u(v < 0), 1) }

func signed(mag uint32, neg uint32) int32 {
	if neg != 0 {
		return -int32(mag)
	}
	return int32(mag)
}

// writeMotion writes one motion-vector component's difference from its
// predictor: a nonzero flag, |d|−1 in unary with an exp-Golomb suffix, a
// sign.
func (s *blockSyntax) writeMotion(e *rangeEncoder, comp int, d int32) {
	e.encode(&s.ctx.mvZero[comp], b2u(d != 0))
	if d == 0 {
		return
	}
	mag := uint32(max(d, -d))
	c, v := &s.ctx.mvBins[comp], mag-1
	for i := uint32(0); i <= v && i < mvPrefix; i++ {
		e.encode(&c[min(i, 3)], b2u(i < v))
	}
	if v >= mvPrefix {
		writeExpGolomb(e, v-mvPrefix)
	}
	writeSign(e, d)
}

func (s *blockSyntax) readMotion(d *rangeDecoder, comp int) int32 {
	if d.decode(&s.ctx.mvZero[comp]) == 0 {
		return 0
	}
	c := &s.ctx.mvBins[comp]
	v := uint32(0)
	for v < mvPrefix && d.decode(&c[min(v, 3)]) == 1 {
		v++
	}
	if v == mvPrefix {
		v += readExpGolomb(d)
	}
	return signed(v+1, d.bypass(1))
}

// writeList writes a coded channel's levels q (at least one nonzero): for
// each zigzag position up to the last nonzero level a significance flag,
// and for each significant one a last flag — position 63, if reached, is
// significant and last without either — then the levels from the last
// back to the first: |level|−1 in unary (its first bin modelled by how
// many levels so far were 1 and whether any exceeded 1, the rest by how
// many did) with an exp-Golomb suffix, and a bypass sign.
func writeList(e *rangeEncoder, c *listContexts, q *[blockLen]int32) {
	end := blockLen - 1
	for q[zigzag[end]] == 0 {
		end--
	}
	for k := 0; k < blockLen-1; k++ {
		sig := q[zigzag[k]] != 0
		e.encode(&c.sig[bandOf[k]], b2u(sig))
		if sig {
			e.encode(&c.last[bandOf[k]], b2u(k == end))
			if k == end {
				break
			}
		}
	}
	var eq1, gt1 int
	for k := end; k >= 0; k-- {
		l := q[zigzag[k]]
		if l == 0 {
			continue
		}
		v := uint32(max(l, -l)) - 1
		e.encode(&c.gt1[levelContext(eq1, gt1)], b2u(v > 0))
		if v > 0 {
			cn := &c.gtN[min(gt1, 4)]
			for i := uint32(1); i <= v && i < levelPrefix; i++ {
				e.encode(cn, b2u(i < v))
			}
			if v >= levelPrefix {
				writeExpGolomb(e, v-levelPrefix)
			}
			gt1++
		} else {
			eq1++
		}
		writeSign(e, l)
	}
}

// levelContext picks the context of a level's first bin.
func levelContext(eq1, gt1 int) int {
	if gt1 > 0 {
		return 0
	}
	return min(eq1+1, 4)
}

// readList reads what writeList wrote into q, which must be zero on entry,
// and returns the mask of its nonzero levels. A list's bins are most of a
// body's, so they are decoded with the coder's range and code in locals,
// handed to d only around an exp-Golomb suffix.
func readList(d *rangeDecoder, c *listContexts, q *[blockLen]int32) (nz uint64) {
	rng, code := d.rng, d.code
	var sig uint64 // bit k: zigzag position k is significant
	k := 0
	for ; k < blockLen-1; k++ {
		var bin uint32
		bin, rng, code = decodeBin(rng, code, &c.sig[bandOf[k]])
		rng, code = d.renormalise(rng, code)
		if bin == 0 {
			continue
		}
		sig |= 1 << k
		bin, rng, code = decodeBin(rng, code, &c.last[bandOf[k]])
		rng, code = d.renormalise(rng, code)
		if bin == 1 {
			break
		}
	}
	if k == blockLen-1 {
		sig |= 1 << k
	}
	var eq1, gt1 int
	for sig != 0 {
		k := 63 - bits.LeadingZeros64(sig)
		sig &^= 1 << k
		var v, bin uint32
		v, rng, code = decodeBin(rng, code, &c.gt1[levelContext(eq1, gt1)])
		rng, code = d.renormalise(rng, code)
		if v > 0 {
			cn := &c.gtN[min(gt1, 4)]
			for v < levelPrefix {
				bin, rng, code = decodeBin(rng, code, cn)
				rng, code = d.renormalise(rng, code)
				if bin == 0 {
					break
				}
				v++
			}
			if v == levelPrefix {
				d.rng, d.code = rng, code
				v += readExpGolomb(d)
				rng, code = d.rng, d.code
			}
			gt1++
		} else {
			eq1++
		}
		bin, rng, code = d.bypassBin(rng, code)
		i := zigzag[k]
		q[i] = signed(v+1, bin)
		nz |= 1 << uint(i)
	}
	d.rng, d.code = rng, code
	return nz
}
