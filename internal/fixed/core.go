package fixed

import (
	"math"
	"math/bits"
)

// word holds the constants every raw operation of one Format needs — in
// hardware, the datapath width wired into each stage's saturator and the
// MAC's rounding term. It is cheap to derive (Format.word), so the Format
// constructors build one per call; Core embeds one beside the CORDIC ROM so
// a per-pixel loop derives it once. Its methods are the package's only
// arithmetic: they take and return raw two's-complement values, each
// saturated to the format like a stage's output register.
//
// Where an operation has a short path (single-word product, single-word
// radicand) it is chosen from the operands' magnitude alone — or, for Mul in
// a format of at most 32 bits, where every operand qualifies, once for the
// format — and computes the same integer as the wide path.
type word struct {
	frac     uint   // fractional bits
	half     int64  // ½ ulp at product scale, 2^(frac-1): Mul's rounding term
	max, min int64  // saturation bounds
	span     uint64 // max-min, all ones over the format's width
	narrow   bool   // every product is one word: TotalBits ≤ 32
}

func (f Format) word() word {
	w := word{frac: uint(f.FracBits()), max: math.MaxInt64, min: math.MinInt64, narrow: f.TotalBits <= 32}
	if f.TotalBits != 64 {
		w.max = int64(1)<<uint(f.TotalBits-1) - 1
		w.min = -(int64(1) << uint(f.TotalBits-1))
	}
	if w.frac > 0 {
		w.half = int64(1) << (w.frac - 1)
	}
	w.span = uint64(w.max - w.min)
	return w
}

// Sat clamps raw into the representable range.
func (w *word) Sat(raw int64) int64 { return min(max(raw, w.min), w.max) }

// FromInt returns the raw value of integer x, saturated.
func (w *word) FromInt(x int) int64 { return w.Sat(int64(x) << w.frac) }

// Int returns the integer part of a, truncating toward negative infinity.
func (w *word) Int(a int64) int { return int(a >> w.frac) }

// Add returns a+b saturated.
func (w *word) Add(a, b int64) int64 { return w.Sat(a + b) }

// Sub returns a-b saturated.
func (w *word) Sub(a, b int64) int64 { return w.Sat(a - b) }

// Neg returns -a saturated.
func (w *word) Neg(a int64) int64 { return w.Sat(-a) }

// Abs returns |a| saturated.
func (w *word) Abs(a int64) int64 {
	if a < 0 {
		return w.Sat(-a)
	}
	return a
}

// narrow is the operand magnitude below which a product, plus any rounding
// term, fits one signed word: |a|,|b| ≤ 2³¹-1 gives |a·b| < 2⁶², and the
// largest half (2⁶², at 63 fractional bits) keeps the sum below 2⁶³.
const narrow = 1<<31 - 1

func fitsNarrow(a, b int64) bool {
	return uint64(a+narrow) <= 2*narrow && uint64(b+narrow) <= 2*narrow
}

// Mul returns a·b rounded to nearest (ties toward +∞) and saturated — a
// hardware MAC with a full-width accumulator and an output saturator. The
// product is exact before rounding: one word when both operands are narrow,
// 128 bits otherwise.
func (w *word) Mul(a, b int64) int64 { return w.mul(a, b, (*word).mulAny) }

// mul is Mul's body. In a format of at most 32 bits (w.narrow) every raw is
// within ±2³¹, so |a·b| ≤ 2⁶² and the rounding term (≤ 2³⁰) fit one word
// with no per-operand test; wider formats take mulAny. mulAny arrives as a
// parameter only because the inliner prices a call through a parameter
// below a direct call: that keeps Mul inside the inlining budget, so a
// narrow format's MAC is inline arithmetic in the caller's loop.
func (w *word) mul(a, b int64, wide func(*word, int64, int64) int64) int64 {
	if w.narrow {
		return min(max((a*b+w.half)>>w.frac, w.min), w.max)
	}
	return wide(w, a, b)
}

// mulAny is Mul for formats wider than 32 bits, where the operands' own
// magnitude picks the path.
func (w *word) mulAny(a, b int64) int64 {
	if fitsNarrow(a, b) {
		return w.Sat((a*b + w.half) >> w.frac)
	}
	return w.mulWide(a, b)
}

func (w *word) mulWide(a, b int64) int64 {
	hi, lo := mul128(a, b)
	lo, carry := bits.Add64(lo, uint64(w.half), 0)
	hi += int64(carry) // signed addition of the carry into the high word
	return w.Sat(shiftRight128(hi, lo, w.frac))
}

// MulInt returns a·k for a plain integer k, saturated.
func (w *word) MulInt(a int64, k int) int64 {
	if fitsNarrow(a, int64(k)) {
		return w.Sat(a * int64(k))
	}
	hi, lo := mul128(a, int64(k))
	return w.Sat(shiftRight128(hi, lo, 0))
}

// Div returns a/b rounded toward zero and saturated. Division by zero
// saturates to the sign of a (the RTL raises a sticky flag and clamps).
func (w *word) Div(a, b int64) int64 {
	neg := (a < 0) != (b < 0)
	if b == 0 {
		neg = a < 0
	}
	ua, ub := uint64(abs64(a)), uint64(abs64(b))
	// (ua << frac) / ub with a 128-bit numerator.
	hi, lo := uint64(0), ua
	if w.frac > 0 {
		hi, lo = ua>>(64-w.frac), ua<<w.frac
	}
	if hi >= ub {
		// Division by zero, or a quotient past 64 bits: clamp to the sign.
		if neg {
			return w.min
		}
		return w.max
	}
	q, _ := bits.Div64(hi, lo, ub)
	q = min(q, math.MaxInt64)
	if neg {
		return w.Sat(-int64(q))
	}
	return w.Sat(int64(q))
}

// Sqrt returns the square root of a non-negative value, truncated — the
// exact integer floor(√(a·2^frac)), which is what a bit-serial digit
// recurrence produces. Negative inputs return zero (the RTL clamps and
// raises a sticky flag). Floor-root is unique, so the one-word radicand
// takes a float seed corrected in integers and the two-word radicand the
// digit recurrence, and both agree with any other exact algorithm.
func (w *word) Sqrt(a int64) int64 {
	if a <= 0 {
		return 0
	}
	if bits.Len64(uint64(a))+int(w.frac) <= 64 {
		return w.Sat(int64(sqrt64(uint64(a) << w.frac)))
	}
	return w.Sat(int64(sqrt128(uint64(a)>>(64-w.frac), uint64(a)<<w.frac)))
}

// sqrt64 returns floor(√x). The float seed is within one of the root; the
// cap keeps r·r in range when float64(x) rounds up to 2⁶⁴.
func sqrt64(x uint64) uint64 {
	r := min(uint64(math.Sqrt(float64(x))), math.MaxUint32)
	for r*r > x {
		r--
	}
	for r < math.MaxUint32 && (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// sqrt128 returns floor(√(hi:lo)) for an unsigned 128-bit radicand, two
// radicand bits per step.
func sqrt128(hi, lo uint64) uint64 {
	var rem, remHi, root uint64
	for i := 0; i < 64; i++ {
		// Shift two bits from (hi:lo) into (remHi:rem).
		remHi = (remHi << 2) | (rem >> 62)
		rem = (rem << 2) | (hi >> 62)
		hi = (hi << 2) | (lo >> 62)
		lo <<= 2
		root <<= 1
		trial := 2*root + 1
		if remHi > 0 || rem >= trial {
			if rem < trial {
				remHi--
			}
			rem -= trial
			root++
		}
	}
	return root
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// mul128 returns the signed 128-bit product of a and b as (hi, lo).
func mul128(a, b int64) (hi int64, lo uint64) {
	neg := (a < 0) != (b < 0)
	uhi, ulo := bits.Mul64(uint64(abs64(a)), uint64(abs64(b)))
	if !neg {
		return int64(uhi), ulo
	}
	// Two's complement negation of the 128-bit value.
	lo = ^ulo + 1
	hi = ^int64(uhi)
	if lo == 0 {
		hi++
	}
	return hi, lo
}

// shiftRight128 arithmetically shifts the signed 128-bit value (hi:lo) right
// by n (< 64) bits and returns the low 64 bits of the result, saturating if
// the true result does not fit in an int64.
func shiftRight128(hi int64, lo uint64, n uint) int64 {
	r, top := lo, hi
	if n > 0 {
		r = (lo >> n) | (uint64(hi) << (64 - n))
		top = hi >> n // remaining high part after the shift
	}
	// The result fits iff top is the sign extension of r.
	if top == 0 && r <= uint64(math.MaxInt64) {
		return int64(r)
	}
	if top == -1 && int64(r) < 0 {
		return int64(r)
	}
	if hi >= 0 {
		return math.MaxInt64
	}
	return math.MinInt64
}
