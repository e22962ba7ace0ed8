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
// stage's output register. Transcendental functions (Atan2, SinCos) are
// computed with CORDIC in the same format, and Sqrt as an exact integer
// floor-root, so quantization error accumulates exactly as it would in the
// accelerator — this is what makes the Fig. 11 sweep meaningful.
//
// There is one arithmetic: Core (core.go, cordic.go), which works on raw
// int64 values with a format's constants derived once. Fix is a raw value
// tagged with its format, as the Format constructors return it.
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

// One returns 1.0 in the format (saturated if 1.0 is not representable).
func (f Format) One() Fix { return f.FromInt(1) }
