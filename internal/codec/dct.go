package codec

import (
	"math"
	"math/bits"
)

// blockSize is the transform block edge length (8×8, as in JPEG/H.26x).
const blockSize = 8

// cosTable holds the DCT-II basis: cosTable[k][n] = c(k)·cos((2n+1)kπ/16).
var cosTable [blockSize][blockSize]float64

func init() {
	for k := 0; k < blockSize; k++ {
		c := math.Sqrt(2.0 / blockSize)
		if k == 0 {
			c = math.Sqrt(1.0 / blockSize)
		}
		for n := 0; n < blockSize; n++ {
			cosTable[k][n] = c * math.Cos(float64(2*n+1)*float64(k)*math.Pi/(2*blockSize))
		}
	}
}

// fdct computes the 2-D forward DCT of an 8×8 spatial block: a row pass
// tmp[y][k] = Σₙ in[y][n]·c[k][n], then a column pass out[k][x] =
// Σₙ tmp[n][x]·c[k][n], each sum begun at +0 and taking its terms in
// ascending n, each product rounded before it is added (amd64 code fuses
// no multiply-add). That order is the contract the encoder's bytes rest
// on: any other order can round differently and move a level. Within it, the
// eight sums of a row (row pass) or of an output row k (column pass) run
// as independent chains, and a row of in whose eight samples are all zero
// is skipped in both passes: its terms are ±0, and adding ±0 to a sum begun
// at +0 never changes it (see idct).
func fdct(in, out *[blockLen]float64) {
	var tmp [blockSize][blockSize]float64
	var rows uint8 // bit y: row y of in holds a nonzero sample
	for y := range tmp {
		r := (*[blockSize]float64)(in[y*blockSize:])
		// Shifting out the sign bit makes −0 count as zero.
		if (math.Float64bits(r[0])|math.Float64bits(r[1])|math.Float64bits(r[2])|math.Float64bits(r[3])|
			math.Float64bits(r[4])|math.Float64bits(r[5])|math.Float64bits(r[6])|math.Float64bits(r[7]))<<1 == 0 {
			continue
		}
		rows |= 1 << y
		for k := range cosTable {
			c := &cosTable[k]
			tmp[y][k] = 0 + r[0]*c[0] + r[1]*c[1] + r[2]*c[2] + r[3]*c[3] + r[4]*c[4] + r[5]*c[5] + r[6]*c[6] + r[7]*c[7]
		}
	}
	for k := range cosTable {
		c := &cosTable[k]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for m := rows; m != 0; m &= m - 1 {
			n := bits.TrailingZeros8(m) & (blockSize - 1)
			v, t := c[n], &tmp[n]
			s0 += t[0] * v
			s1 += t[1] * v
			s2 += t[2] * v
			s3 += t[3] * v
			s4 += t[4] * v
			s5 += t[5] * v
			s6 += t[6] * v
			s7 += t[7] * v
		}
		*(*[blockSize]float64)(out[k*blockSize:]) = [blockSize]float64{s0, s1, s2, s3, s4, s5, s6, s7}
	}
}

// idct computes the 2-D inverse DCT of an 8×8 coefficient block whose
// nonzero coefficients all sit on the set bits of nz (bit k·8+x for row k,
// column x); every coefficient off nz must be zero. It equals the dense
// transform bit for bit — a column pass Σₖ in[k][x]·c[k][n], then a row
// pass Σₖ tmp[y][k]·c[k][n], each sum started at +0 and taken in ascending
// k — because a skipped term is a product with a zero coefficient, ±0,
// and adding ±0 to a sum that started at +0 never changes it: such a sum
// is never −0. Every surviving product is still added in ascending k.
func idct(in *[blockLen]float64, nz uint64, out *[blockLen]float64) {
	if nz == 1 { // DC only: every dense sum has one nonzero term
		v := (in[0] * cosTable[0][0]) * cosTable[0][0]
		for i := range out {
			out[i] = v
		}
		return
	}
	// Columns: coefficient (k, x) feeds the eight outputs of column x.
	// Bits are visited in ascending index, so each column's terms arrive
	// in ascending k.
	var tmp [blockLen]float64
	for m := nz; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		v, c := in[i], &cosTable[i/blockSize]
		for n, x := 0, i%blockSize; n < blockSize; n++ {
			tmp[n*blockSize+x] += v * c[n]
		}
	}
	// Rows: a column that carries no coefficient is +0 in every row of tmp.
	cols := nz | nz>>32
	cols |= cols >> 16
	cols |= cols >> 8
	*out = [blockLen]float64{}
	for m := cols & 0xff; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		c := &cosTable[k]
		for y := 0; y < blockSize; y++ {
			v, o := tmp[y*blockSize+k], out[y*blockSize:][:blockSize]
			for n := range o {
				o[n] += v * c[n]
			}
		}
	}
}

// zigzag is the coefficient scan order: low frequencies first so that runs
// of trailing zeros compress well.
var zigzag = buildZigzag()

func buildZigzag() [blockSize * blockSize]int {
	var order [blockSize * blockSize]int
	idx := 0
	for s := 0; s < 2*blockSize-1; s++ {
		if s%2 == 0 { // up-right
			for y := min(s, blockSize-1); y >= 0 && s-y < blockSize; y-- {
				order[idx] = y*blockSize + (s - y)
				idx++
			}
		} else { // down-left
			for x := min(s, blockSize-1); x >= 0 && s-x < blockSize; x-- {
				order[idx] = (s-x)*blockSize + x
				idx++
			}
		}
	}
	return order
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// quantStep returns the quantizer step for coefficient index (ky, kx) at a
// quality scale: a flat base with a frequency-proportional ramp, scaled
// linearly with Quality (1 = finest).
func quantStep(ky, kx, quality int) float64 {
	base := 4.0 + 1.5*float64(ky+kx)
	return base * float64(quality)
}
