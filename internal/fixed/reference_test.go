package fixed

import (
	"math"
	"math/bits"
)

// The reference arithmetic: the package's original, straightforward
// implementation — every product through a 128-bit intermediate, a Fix-valued
// CORDIC that re-derives the saturation bounds on each add, and a 64-step
// bit-serial square root of a 128-bit radicand — kept as the test-only
// oracle. FuzzFixedOps holds the production core (core.go) to it bit for
// bit; nothing here is reachable from non-test code, and nothing here calls
// the production arithmetic.

func refMaxRaw(f Format) int64 {
	if f.TotalBits == 64 {
		return math.MaxInt64
	}
	return (int64(1) << uint(f.TotalBits-1)) - 1
}

func refMinRaw(f Format) int64 {
	if f.TotalBits == 64 {
		return math.MinInt64
	}
	return -(int64(1) << uint(f.TotalBits-1))
}

func refFromRaw(f Format, raw int64) Fix {
	if raw > refMaxRaw(f) {
		raw = refMaxRaw(f)
	}
	if raw < refMinRaw(f) {
		raw = refMinRaw(f)
	}
	return Fix{Raw: raw, Fmt: f}
}

func refFromFloat(f Format, x float64) Fix {
	// uint64, where the original had int64: at 63 fractional bits the scale
	// came out as -2^63, every constant took the wrong sign and SinCos's
	// range reduction never ended. The one deliberate departure.
	scaled := x * float64(uint64(1)<<uint(f.FracBits()))
	if math.IsNaN(scaled) {
		return Fix{Raw: 0, Fmt: f}
	}
	if scaled >= float64(refMaxRaw(f)) {
		return Fix{Raw: refMaxRaw(f), Fmt: f}
	}
	if scaled <= float64(refMinRaw(f)) {
		return Fix{Raw: refMinRaw(f), Fmt: f}
	}
	return Fix{Raw: int64(math.RoundToEven(scaled)), Fmt: f}
}

func refFromInt(f Format, x int) Fix { return refFromRaw(f, int64(x)<<uint(f.FracBits())) }

func refAdd(a, b Fix) Fix { return refFromRaw(a.Fmt, a.Raw+b.Raw) }
func refSub(a, b Fix) Fix { return refFromRaw(a.Fmt, a.Raw-b.Raw) }
func refNeg(a Fix) Fix    { return refFromRaw(a.Fmt, -a.Raw) }

func refCmp(a, b Fix) int {
	switch {
	case a.Raw < b.Raw:
		return -1
	case a.Raw > b.Raw:
		return 1
	default:
		return 0
	}
}

func refShr(a Fix, n uint) Fix { return Fix{Raw: a.Raw >> n, Fmt: a.Fmt} }

func refMul(a, b Fix) Fix {
	hi, lo := refMul128(a.Raw, b.Raw)
	frac := uint(a.Fmt.FracBits())
	// Round to nearest: add half-ulp before shifting right.
	half := uint64(0)
	if frac > 0 {
		half = uint64(1) << (frac - 1)
	}
	var carry uint64
	lo, carry = bits.Add64(lo, half, 0)
	hi += int64(carry)
	return refFromRaw(a.Fmt, refShiftRight128(hi, lo, frac))
}

func refDiv(a, b Fix) Fix {
	if b.Raw == 0 {
		if a.Raw >= 0 {
			return Fix{Raw: refMaxRaw(a.Fmt), Fmt: a.Fmt}
		}
		return Fix{Raw: refMinRaw(a.Fmt), Fmt: a.Fmt}
	}
	neg := (a.Raw < 0) != (b.Raw < 0)
	ua := uint64(refAbs64(a.Raw))
	ub := uint64(refAbs64(b.Raw))
	// (ua << frac) / ub with a 128-bit numerator.
	frac := uint(a.Fmt.FracBits())
	hi := ua >> (64 - frac)
	lo := ua << frac
	if frac == 0 {
		hi, lo = 0, ua
	}
	if hi >= ub {
		if neg {
			return Fix{Raw: refMinRaw(a.Fmt), Fmt: a.Fmt}
		}
		return Fix{Raw: refMaxRaw(a.Fmt), Fmt: a.Fmt}
	}
	q, _ := bits.Div64(hi, lo, ub)
	if q > uint64(math.MaxInt64) {
		q = uint64(math.MaxInt64)
	}
	r := int64(q)
	if neg {
		r = -r
	}
	return refFromRaw(a.Fmt, r)
}

func refMulInt(a Fix, k int) Fix {
	hi, lo := refMul128(a.Raw, int64(k))
	return refFromRaw(a.Fmt, refShiftRight128(hi, lo, 0))
}

func refAbs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// refMul128 returns the signed 128-bit product of a and b as (hi, lo).
func refMul128(a, b int64) (hi int64, lo uint64) {
	neg := (a < 0) != (b < 0)
	uhi, ulo := bits.Mul64(uint64(refAbs64(a)), uint64(refAbs64(b)))
	if !neg {
		return int64(uhi), ulo
	}
	lo = ^ulo + 1
	hi = ^int64(uhi)
	if lo == 0 {
		hi++
	}
	return hi, lo
}

// refShiftRight128 arithmetically shifts (hi:lo) right by n (< 64) bits,
// saturating if the result does not fit in an int64.
func refShiftRight128(hi int64, lo uint64, n uint) int64 {
	var r uint64
	if n == 0 {
		r = lo
	} else {
		r = (lo >> n) | (uint64(hi) << (64 - n))
	}
	top := hi >> n
	if n == 0 {
		top = hi
	}
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

func refIterations(f Format) int {
	n := f.FracBits() + 2
	if n < 4 {
		n = 4
	}
	if n > 60 {
		n = 60
	}
	return n
}

// refROM rebuilds the CORDIC angle table and gain on every call.
func refROM(f Format) (atan []Fix, gain Fix) {
	n := refIterations(f)
	atan = make([]Fix, n)
	for i := range atan {
		atan[i] = refFromFloat(f, math.Atan(math.Ldexp(1, -i)))
	}
	k := 1.0
	for i := 0; i < n; i++ {
		k *= 1 / math.Sqrt(1+math.Ldexp(1, -2*i))
	}
	return atan, refFromFloat(f, k)
}

func refSinCos(f Format, a Fix) (sin, cos Fix) {
	pi := refFromFloat(f, math.Pi)
	twoPi := refFromFloat(f, 2*math.Pi)
	z := a
	for refCmp(z, pi) > 0 {
		z = refSub(z, twoPi)
	}
	for refCmp(z, refNeg(pi)) < 0 {
		z = refAdd(z, twoPi)
	}
	flip := false
	half := refFromFloat(f, math.Pi/2)
	if refCmp(z, half) > 0 {
		z = refSub(pi, z)
		flip = true
	} else if refCmp(z, refNeg(half)) < 0 {
		z = refSub(refNeg(pi), z)
		flip = true
	}
	atan, x := refROM(f)
	y := Fix{Fmt: f}
	for i := range atan {
		dx := refShr(x, uint(i))
		dy := refShr(y, uint(i))
		if z.Raw >= 0 {
			x, y = refSub(x, dy), refAdd(y, dx)
			z = refSub(z, atan[i])
		} else {
			x, y = refAdd(x, dy), refSub(y, dx)
			z = refAdd(z, atan[i])
		}
	}
	sin, cos = y, x
	if flip {
		cos = refNeg(cos)
	}
	return sin, cos
}

func refAtan2(f Format, y, x Fix) Fix {
	if x.Raw == 0 && y.Raw == 0 {
		return Fix{Fmt: f}
	}
	offset := Fix{Fmt: f}
	switch {
	case x.Raw < 0 && y.Raw >= 0:
		offset = refFromFloat(f, math.Pi)
		x, y = refNeg(x), refNeg(y)
	case x.Raw < 0 && y.Raw < 0:
		offset = refNeg(refFromFloat(f, math.Pi))
		x, y = refNeg(x), refNeg(y)
	}
	atan, _ := refROM(f)
	z := Fix{Fmt: f}
	for i := range atan {
		dx := refShr(x, uint(i))
		dy := refShr(y, uint(i))
		if y.Raw >= 0 {
			x, y = refAdd(x, dy), refSub(y, dx)
			z = refAdd(z, atan[i])
		} else {
			x, y = refSub(x, dy), refAdd(y, dx)
			z = refSub(z, atan[i])
		}
	}
	return refAdd(z, offset)
}

func refSqrt(f Format, a Fix) Fix {
	if a.Raw <= 0 {
		return Fix{Fmt: f}
	}
	// sqrt(raw / 2^frac) = sqrt(raw << frac) / 2^frac: widen to 128 bits.
	frac := uint(f.FracBits())
	hi := uint64(a.Raw) >> (64 - frac)
	lo := uint64(a.Raw) << frac
	if frac == 0 {
		hi, lo = 0, uint64(a.Raw)
	}
	return refFromRaw(f, int64(refSqrt128(hi, lo)))
}

// refSqrt128 returns floor(sqrt(hi:lo)), two radicand bits per step.
func refSqrt128(hi, lo uint64) uint64 {
	var rem, remHi, root uint64
	for i := 0; i < 64; i++ {
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
