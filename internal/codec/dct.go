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

// fdct computes the 2-D forward DCT of an 8×8 spatial block.
func fdct(in *[blockSize * blockSize]float64, out *[blockSize * blockSize]float64) {
	var tmp [blockSize * blockSize]float64
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
