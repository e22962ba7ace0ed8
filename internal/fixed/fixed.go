// Package fixed implements the parametric fixed-point arithmetic used by the
// PTE accelerator datapath (§6.3 of the paper).
//
// A Format describes a two's-complement representation with TotalBits total
// width and IntBits integer bits (sign bit included); the remaining
// TotalBits-IntBits bits are fractional. The paper's chosen design point is
// [28, 10]: 28 bits total with 10 integer bits, which keeps the mean pixel
// error of the reconstructed FOV frame below the visually-indistinguishable
// 1e-3 threshold (Fig. 11).
//
// All arithmetic saturates instead of wrapping, matching the modeled RTL:
// overflow in a hardware datapath is clamped by the saturation logic at each
// stage's output register. Transcendental functions (Atan2, SinCos, Asin) are
// computed with CORDIC in the same format, and Sqrt as an exact integer
// floor-root, so quantization error accumulates exactly as it would in the
// accelerator — this is what makes the Fig. 11 sweep meaningful.
//
// There is one arithmetic: Core (core.go, cordic.go), which works on raw
// int64 values with a format's constants derived once. Fix is the
// self-describing value type over it for code that is not per-pixel.
package fixed

import (
	"fmt"
	"math"
)

// Format describes a fixed-point representation.
type Format struct {
	TotalBits int // total width, 2..64
	IntBits   int // integer bits including sign, 1..TotalBits
}

// Q2810 is the paper's chosen PTE design point (Fig. 11, "[28, 10]").
var Q2810 = Format{TotalBits: 28, IntBits: 10}

// Validate reports whether the format is representable by this package.
func (f Format) Validate() error {
	if f.TotalBits < 2 || f.TotalBits > 64 {
		return fmt.Errorf("fixed: total bits %d out of range [2,64]", f.TotalBits)
	}
	if f.IntBits < 1 || f.IntBits > f.TotalBits {
		return fmt.Errorf("fixed: integer bits %d out of range [1,%d]", f.IntBits, f.TotalBits)
	}
	return nil
}

// FracBits returns the number of fractional bits.
func (f Format) FracBits() int { return f.TotalBits - f.IntBits }

// String implements fmt.Stringer using the paper's [total, int] notation.
func (f Format) String() string { return fmt.Sprintf("[%d, %d]", f.TotalBits, f.IntBits) }

// Fix is a fixed-point value. The zero value is 0 in an invalid format; use
// a Format constructor to obtain usable values.
type Fix struct {
	Raw int64
	Fmt Format
}

// FromRaw builds a value from a raw integer, saturating to the format.
func (f Format) FromRaw(raw int64) Fix {
	w := f.word()
	return Fix{Raw: w.Sat(raw), Fmt: f}
}

// FromFloat quantizes x (round-to-nearest) into the format, saturating.
func (f Format) FromFloat(x float64) Fix {
	w := f.word()
	scaled := x * float64(uint64(1)<<w.frac) // unsigned: 2^63 at 63 fractional bits
	if math.IsNaN(scaled) {
		return Fix{Raw: 0, Fmt: f}
	}
	if scaled >= float64(w.max) {
		return Fix{Raw: w.max, Fmt: f}
	}
	if scaled <= float64(w.min) {
		return Fix{Raw: w.min, Fmt: f}
	}
	return Fix{Raw: int64(math.RoundToEven(scaled)), Fmt: f}
}

// FromInt converts an integer, saturating.
func (f Format) FromInt(x int) Fix {
	w := f.word()
	return Fix{Raw: w.FromInt(x), Fmt: f}
}

// Zero returns 0 in the format.
func (f Format) Zero() Fix { return Fix{Fmt: f} }

// One returns 1.0 in the format (saturated if 1.0 is not representable).
func (f Format) One() Fix { return f.FromInt(1) }

// Pi returns π in the format.
func (f Format) Pi() Fix { return f.FromFloat(math.Pi) }

// HalfPi returns π/2 in the format.
func (f Format) HalfPi() Fix { return f.FromFloat(math.Pi / 2) }

// Epsilon returns the smallest positive representable value.
func (f Format) Epsilon() Fix { return Fix{Raw: 1, Fmt: f} }

// Float converts the value back to float64.
func (a Fix) Float() float64 {
	return float64(a.Raw) / float64(uint64(1)<<uint(a.Fmt.FracBits()))
}

// Int returns the integer part, truncating toward negative infinity.
func (a Fix) Int() int { return int(a.Raw >> uint(a.Fmt.FracBits())) }

// String implements fmt.Stringer.
func (a Fix) String() string { return fmt.Sprintf("%g%s", a.Float(), a.Fmt) }

// Add returns a+b saturated. Both operands must share a format.
func (a Fix) Add(b Fix) Fix {
	w := a.Fmt.word()
	return Fix{Raw: w.Add(a.Raw, b.Raw), Fmt: a.Fmt}
}

// Sub returns a-b saturated.
func (a Fix) Sub(b Fix) Fix {
	w := a.Fmt.word()
	return Fix{Raw: w.Sub(a.Raw, b.Raw), Fmt: a.Fmt}
}

// Neg returns -a saturated.
func (a Fix) Neg() Fix {
	w := a.Fmt.word()
	return Fix{Raw: w.Neg(a.Raw), Fmt: a.Fmt}
}

// Abs returns |a| saturated.
func (a Fix) Abs() Fix {
	w := a.Fmt.word()
	return Fix{Raw: w.Abs(a.Raw), Fmt: a.Fmt}
}

// Cmp returns -1, 0, or +1 as a is less than, equal to, or greater than b.
func (a Fix) Cmp(b Fix) int {
	switch {
	case a.Raw < b.Raw:
		return -1
	case a.Raw > b.Raw:
		return 1
	default:
		return 0
	}
}

// IsZero reports whether the value is exactly zero.
func (a Fix) IsZero() bool { return a.Raw == 0 }

// Mul returns a·b with a full-width intermediate product, rounded to nearest
// and saturated — the behaviour of a hardware MAC with a wide accumulator
// and an output saturator.
func (a Fix) Mul(b Fix) Fix {
	w := a.Fmt.word()
	return Fix{Raw: w.Mul(a.Raw, b.Raw), Fmt: a.Fmt}
}

// Div returns a/b rounded toward zero and saturated. Division by zero
// saturates to the sign of a (the RTL raises a sticky flag and clamps).
func (a Fix) Div(b Fix) Fix {
	w := a.Fmt.word()
	return Fix{Raw: w.Div(a.Raw, b.Raw), Fmt: a.Fmt}
}

// MulInt returns a·k for a plain integer k, saturated.
func (a Fix) MulInt(k int) Fix {
	w := a.Fmt.word()
	return Fix{Raw: w.MulInt(a.Raw, k), Fmt: a.Fmt}
}

// Shr returns a >> n (arithmetic), the hardware's cheap divide-by-2ⁿ.
func (a Fix) Shr(n uint) Fix { return Fix{Raw: a.Raw >> n, Fmt: a.Fmt} }

// Shl returns a << n, saturated.
func (a Fix) Shl(n uint) Fix {
	w := a.Fmt.word()
	return Fix{Raw: w.Shl(a.Raw, n), Fmt: a.Fmt}
}

// SinCos computes sin(a) and cos(a) with CORDIC in rotation mode; see
// Core.SinCos.
func (f Format) SinCos(a Fix) (sin, cos Fix) {
	s, c := f.Core().SinCos(a.Raw)
	return Fix{Raw: s, Fmt: f}, Fix{Raw: c, Fmt: f}
}

// Atan2 computes atan2(y, x) with CORDIC in vectoring mode; see Core.Atan2.
func (f Format) Atan2(y, x Fix) Fix { return Fix{Raw: f.Core().Atan2(y.Raw, x.Raw), Fmt: f} }

// Sqrt computes the square root of a non-negative value; see Core.Sqrt.
func (f Format) Sqrt(a Fix) Fix {
	w := f.word()
	return Fix{Raw: w.Sqrt(a.Raw), Fmt: f}
}

// Asin computes arcsin(y) for y in [-1, 1]; see Core.Asin.
func (f Format) Asin(y Fix) Fix { return Fix{Raw: f.Core().Asin(y.Raw), Fmt: f} }
