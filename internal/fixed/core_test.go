package fixed

import (
	"math"
	"testing"
)

// fuzzRaw turns one fuzz word into an in-range raw for f, drawn from the
// neighbourhoods where the core changes path: zero, ±2³¹ (the single-word
// product limit), both saturation bounds, and the edge of Atan2's
// unsaturated range (±free and ±(free+1)); anything else is taken as is.
func fuzzRaw(f Format, sel uint8, v int64) int64 {
	near := v % 1024 // ±1023 around the anchor
	switch sel % 8 {
	case 0:
		v = near
	case 1:
		v = 1<<31 + near
	case 2:
		v = -(1 << 31) + near
	case 3:
		v = refMaxRaw(f) - abs64(near)
	case 4:
		v = refMinRaw(f) + abs64(near)
	case 5:
		v = f.Core().free + near&1
		if near < 0 {
			v = -v
		}
	case 6:
		v = 0
	}
	return refFromRaw(f, v).Raw
}

// checkOps compares every operation of the raw Core the PTE datapath runs
// on (a, b, k) with the reference, bit for bit.
func checkOps(t *testing.T, f Format, a, b int64, k int) {
	t.Helper()
	x, y := Fix{Raw: a, Fmt: f}, Fix{Raw: b, Fmt: f}
	c := f.Core()
	eq := func(op string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%v %s(%d, %d, k=%d) = %d, reference %d", f, op, a, b, k, got, want)
		}
	}
	eq("Add", c.Add(a, b), refAdd(x, y).Raw)
	eq("Sub", c.Sub(a, b), refSub(x, y).Raw)
	eq("Neg", c.Neg(a), refNeg(x).Raw)
	eq("Abs", c.Abs(a), refFromRaw(f, refAbs64(a)).Raw)
	eq("Mul", c.Mul(a, b), refMul(x, y).Raw)
	eq("MulInt", c.MulInt(a, k), refMulInt(x, k).Raw)
	eq("Div", c.Div(a, b), refDiv(x, y).Raw)
	eq("FromInt", f.FromInt(k).Raw, refFromInt(f, k).Raw)
	eq("Sqrt", c.Sqrt(a), refSqrt(f, x).Raw)
	eq("Atan2", c.Atan2(a, b), refAtan2(f, x, y).Raw)
	// SinCos range-reduces by repeated ±2π, linear in the angle: keep it
	// within ±64 rad so an integer-heavy format does not loop for minutes.
	ang := Fix{Raw: a % (refFromFloat(f, 64).Raw + 1), Fmt: f}
	s, cs := c.SinCos(ang.Raw)
	rs, rc := refSinCos(f, ang)
	eq("Sin", s, rs.Raw)
	eq("Cos", cs, rc.Raw)
}

// FuzzFixedOps: for random formats and operands near every path boundary,
// the production arithmetic equals the reference implementation bit for bit.
func FuzzFixedOps(f *testing.F) {
	f.Add(uint8(28), uint8(10), uint8(0), uint8(0), int64(12345), int64(-777), int64(3))
	f.Add(uint8(64), uint8(1), uint8(2), uint8(2), int64(0), int64(0), int64(-5))
	f.Add(uint8(64), uint8(24), uint8(3), uint8(4), int64(17), int64(900), int64(1<<40))
	f.Add(uint8(32), uint8(12), uint8(1), uint8(2), int64(-1), int64(1), int64(255))
	f.Add(uint8(12), uint8(6), uint8(3), uint8(3), int64(5), int64(6), int64(7))
	f.Add(uint8(48), uint8(16), uint8(5), uint8(5), int64(math.MaxInt64), int64(math.MinInt64), int64(2))
	f.Fuzz(func(t *testing.T, total, intb, selA, selB uint8, va, vb, k int64) {
		fm := Format{TotalBits: 2 + int(total)%63}
		fm.IntBits = 1 + int(intb)%fm.TotalBits
		if err := fm.Validate(); err != nil {
			t.Fatal(err)
		}
		checkOps(t, fm, fuzzRaw(fm, selA, va), fuzzRaw(fm, selB, vb), int(k))
	})
}

// TestCoreMatchesReference walks the same comparison deterministically over
// every total width and a spread of integer widths, so plain `go test`
// covers the path boundaries without the fuzz engine.
func TestCoreMatchesReference(t *testing.T) {
	state := uint64(18)
	next := func() int64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return int64(z ^ (z >> 31))
	}
	for total := 2; total <= 64; total++ {
		for _, intb := range []int{1, 2, 3, total / 2, total - 1, total} {
			if intb < 1 || intb > total {
				continue
			}
			f := Format{TotalBits: total, IntBits: intb}
			for sa := uint8(0); sa < 8; sa++ {
				for sb := uint8(0); sb < 8; sb++ {
					k := next() >> uint(next()&63) // every magnitude
					checkOps(t, f, fuzzRaw(f, sa, next()), fuzzRaw(f, sb, next()), int(k))
				}
			}
		}
	}
}

// TestAtan2FreeBound checks the bound under which Atan2 skips the
// per-stage range test, for every format of 2 to 64 bits: Atan2 equals the
// reference for every operand pair drawn from ±free, ±(free+1) and 0 (the
// last step inside the bound, the first outside it, the 0-vector), and free
// is 0 wherever its derivation does not hold — one integer bit, where the
// angle ROM's sum (≥ atan 1 + atan ½ > 1) cannot be represented, and
// formats too narrow for max·K/√2 to clear the stage count — and never
// above max·K/√2 − stages otherwise.
func TestAtan2FreeBound(t *testing.T) {
	for total := 2; total <= 64; total++ {
		for intb := 1; intb <= total; intb++ {
			f := Format{TotalBits: total, IntBits: intb}
			free := f.Core().free
			k := 1.0
			for i := 0; i < refIterations(f); i++ {
				k /= math.Sqrt(1 + math.Ldexp(1, -2*i))
			}
			limit := float64(refMaxRaw(f))*k/math.Sqrt2 - float64(refIterations(f))
			switch {
			case intb == 1 && free != 0:
				t.Errorf("%v: free = %d, want 0 (the angle ROM overflows one integer bit)", f, free)
			case limit < 1 && free != 0:
				t.Errorf("%v: free = %d, want 0 (max·K/√2 − stages = %.1f)", f, free, limit)
			case free > 0 && float64(free) > limit:
				t.Errorf("%v: free = %d above max·K/√2 − stages = %.1f", f, free, limit)
			}
			ops := []int64{0, free, -free, free + 1, -free - 1}
			for _, y := range ops {
				for _, x := range ops {
					y, x := refFromRaw(f, y), refFromRaw(f, x)
					if got, want := f.Core().Atan2(y.Raw, x.Raw), refAtan2(f, y, x).Raw; got != want {
						t.Errorf("%v (free %d): Atan2(%d, %d) = %d, reference %d", f, free, y.Raw, x.Raw, got, want)
					}
				}
			}
		}
	}
	if Q2810.Core().free == 0 || (Format{TotalBits: 63, IntBits: 1}).Core().free != 0 {
		t.Errorf("free: [28, 10] %d (want > 0), [63, 1] %d (want 0)", Q2810.Core().free, Format{TotalBits: 63, IntBits: 1}.Core().free)
	}
}

// TestMulNarrowFormats: the format decides Mul's single-word path once —
// every format of at most 32 bits, none wider — and at both widths the
// products of the extreme raws equal the reference.
func TestMulNarrowFormats(t *testing.T) {
	for _, total := range []int{31, 32, 33} {
		for _, intb := range []int{1, 2, total / 2, total - 1, total} {
			f := Format{TotalBits: total, IntBits: intb}
			c := f.Core()
			if c.narrow != (total <= 32) {
				t.Errorf("%v: narrow = %v", f, c.narrow)
			}
			ext := []int64{refMinRaw(f), refMinRaw(f) + 1, -1, 0, 1, refMaxRaw(f) - 1, refMaxRaw(f)}
			for _, a := range ext {
				for _, b := range ext {
					if got, want := c.Mul(a, b), refMul(Fix{Raw: a, Fmt: f}, Fix{Raw: b, Fmt: f}).Raw; got != want {
						t.Errorf("%v: Mul(%d, %d) = %d, reference %d", f, a, b, got, want)
					}
				}
			}
		}
	}
}

func TestSqrt64Boundaries(t *testing.T) {
	for _, x := range []uint64{0, 1, 2, 3, 4, 1<<32 - 1, 1 << 32, 1<<52 + 1, 1<<53 - 1,
		(1<<32 - 1) * (1<<32 - 1), (1<<32-1)*(1<<32-1) - 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63} {
		if got, want := sqrt64(x), refSqrt128(0, x); got != want {
			t.Errorf("sqrt64(%d) = %d, want %d", x, got, want)
		}
	}
}

var benchFormats = []Format{Q2810, {TotalBits: 48, IntBits: 16}}

// benchSink keeps the measured calls alive.
var benchSink int64

func benchOperands(f Format) (a, b int64) {
	return f.FromFloat(0.7071).Raw, f.FromFloat(-1.2345).Raw
}

func BenchmarkMul(b *testing.B) {
	for _, f := range benchFormats {
		c := f.Core()
		x, y := benchOperands(f)
		b.Run(f.String(), func(b *testing.B) {
			acc := x
			for i := 0; i < b.N; i++ {
				acc = c.Mul(acc, y) | 1
			}
			benchSink = acc
		})
	}
}

func BenchmarkAtan2(b *testing.B) {
	for _, f := range benchFormats {
		c := f.Core()
		x, y := benchOperands(f)
		b.Run(f.String(), func(b *testing.B) {
			acc := int64(0)
			for i := 0; i < b.N; i++ {
				acc += c.Atan2(y+int64(i&1023), x)
			}
			benchSink = acc
		})
	}
}

func BenchmarkSqrt(b *testing.B) {
	for _, f := range benchFormats {
		c := f.Core()
		x, _ := benchOperands(f)
		b.Run(f.String(), func(b *testing.B) {
			acc := int64(0)
			for i := 0; i < b.N; i++ {
				acc += c.Sqrt(x + int64(i&1023))
			}
			benchSink = acc
		})
	}
}

func BenchmarkSinCos(b *testing.B) {
	for _, f := range benchFormats {
		c := f.Core()
		x, _ := benchOperands(f)
		b.Run(f.String(), func(b *testing.B) {
			acc := int64(0)
			for i := 0; i < b.N; i++ {
				s, cs := c.SinCos(x + int64(i&1023))
				acc += s + cs
			}
			benchSink = acc
		})
	}
}
