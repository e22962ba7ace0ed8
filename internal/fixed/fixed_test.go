package fixed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// raw quantizes x into f; flt converts a raw value of f back to float64.
func raw(f Format, x float64) int64 { return f.FromFloat(x).Raw }

func flt(f Format, r int64) float64 { return float64(r) / float64(uint64(1)<<uint(f.FracBits())) }

func TestFormatValidate(t *testing.T) {
	valid := []Format{Q2810, {64, 32}, {2, 1}, {24, 24}, {16, 1}}
	for _, f := range valid {
		if err := f.Validate(); err != nil {
			t.Errorf("%v should be valid: %v", f, err)
		}
	}
	invalid := []Format{{0, 0}, {65, 10}, {28, 0}, {28, 29}, {1, 1}}
	for _, f := range invalid {
		if err := f.Validate(); err == nil {
			t.Errorf("%v should be invalid", f)
		}
	}
}

func TestFromFloatRoundTrip(t *testing.T) {
	f := Q2810
	ulp := 1.0 / float64(int64(1)<<uint(f.FracBits()))
	for _, x := range []float64{0, 1, -1, 0.5, -0.5, 3.14159, -2.71828, 255.994, -256} {
		got := flt(f, raw(f, x))
		if math.Abs(got-x) > ulp {
			t.Errorf("round trip %v -> %v (ulp %v)", x, got, ulp)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	f := Format{TotalBits: 16, IntBits: 8} // range [-128, 128)
	if got := flt(f, raw(f, 1e9)); got < 127.9 || got > 128 {
		t.Errorf("positive saturation = %v", got)
	}
	if got := flt(f, raw(f, -1e9)); got != -128 {
		t.Errorf("negative saturation = %v", got)
	}
	if got := flt(f, raw(f, math.NaN())); got != 0 {
		t.Errorf("NaN should quantize to 0, got %v", got)
	}
}

func TestAddSubSaturate(t *testing.T) {
	f := Format{TotalBits: 8, IntBits: 8} // pure integers [-128, 127]
	c := f.Core()
	a := f.FromInt(100).Raw
	b := f.FromInt(50).Raw
	if got := c.Int(c.Add(a, b)); got != 127 {
		t.Errorf("saturated add = %v, want 127", got)
	}
	if got := c.Int(c.Sub(c.Neg(a), b)); got != -128 {
		t.Errorf("saturated sub = %v, want -128", got)
	}
	if got := c.Int(c.Sub(a, b)); got != 50 {
		t.Errorf("add = %v, want 50", got)
	}
}

func TestMulBasic(t *testing.T) {
	f := Q2810
	c := f.Core()
	cases := []struct{ a, b, want float64 }{
		{2, 3, 6},
		{-2, 3, -6},
		{0.5, 0.5, 0.25},
		{-0.25, -0.25, 0.0625},
		{100, 0, 0},
		{1.5, 2.5, 3.75},
	}
	ulp := 1.0 / float64(int64(1)<<uint(f.FracBits()))
	for _, tc := range cases {
		got := flt(f, c.Mul(raw(f, tc.a), raw(f, tc.b)))
		if math.Abs(got-tc.want) > 2*ulp {
			t.Errorf("%v * %v = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestMulSaturates(t *testing.T) {
	f := Q2810 // range [-512, 512)
	c := f.Core()
	got := flt(f, c.Mul(raw(f, 400), raw(f, 400)))
	if got < 511 || got > 512 {
		t.Errorf("saturated mul = %v, want ~512", got)
	}
	got = flt(f, c.Mul(raw(f, -400), raw(f, 400)))
	if got != -512 {
		t.Errorf("saturated mul = %v, want -512", got)
	}
}

func TestDivBasic(t *testing.T) {
	f := Q2810
	c := f.Core()
	ulp := 1.0 / float64(int64(1)<<uint(f.FracBits()))
	cases := []struct{ a, b, want float64 }{
		{6, 3, 2},
		{-6, 3, -2},
		{1, 4, 0.25},
		{5, -2, -2.5},
		{0, 7, 0},
	}
	for _, tc := range cases {
		got := flt(f, c.Div(raw(f, tc.a), raw(f, tc.b)))
		if math.Abs(got-tc.want) > 2*ulp {
			t.Errorf("%v / %v = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDivByZeroSaturates(t *testing.T) {
	f := Q2810
	c := f.Core()
	if got := c.Div(raw(f, 1), 0); got != f.word().max {
		t.Errorf("1/0 = %v, want max", got)
	}
	if got := c.Div(raw(f, -1), 0); got != f.word().min {
		t.Errorf("-1/0 = %v, want min", got)
	}
}

func TestMulDivInverseProperty(t *testing.T) {
	f := Q2810
	c := f.Core()
	ulp := 1.0 / float64(int64(1)<<uint(f.FracBits()))
	prop := func(a, b float64) bool {
		// Keep |a·b| within the [28, 10] range (±512) so Mul cannot saturate.
		a = math.Mod(a, 20)
		b = math.Mod(b, 20)
		if math.Abs(b) < 0.1 {
			return true
		}
		x := raw(f, a)
		y := raw(f, b)
		back := flt(f, c.Div(c.Mul(x, y), y))
		return math.Abs(back-flt(f, x)) < math.Abs(b)*4*ulp+4*ulp
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Error(err)
	}
}

func TestMulIntAndHelpers(t *testing.T) {
	f := Q2810
	c := f.Core()
	if got := flt(f, c.MulInt(raw(f, 1.5), 4)); got != 6 {
		t.Errorf("1.5*4 = %v", got)
	}
	if got := flt(f, c.Abs(raw(f, -3))); got != 3 {
		t.Errorf("abs(-3) = %v", got)
	}
	if flt(f, f.One().Raw) != 1 {
		t.Error("One broken")
	}
	if c.Int(f.FromInt(-3).Raw) != -3 {
		t.Error("FromInt/Int round trip broken")
	}
}

func TestFormatString(t *testing.T) {
	if Q2810.String() != "[28, 10]" {
		t.Errorf("String = %q", Q2810.String())
	}
}

func TestMul128Extremes(t *testing.T) {
	f := Format{TotalBits: 64, IntBits: 32}
	big := raw(f, 30000.25)
	got := flt(f, f.Core().Mul(big, big))
	want := 30000.25 * 30000.25
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("wide mul = %v, want %v", got, want)
	}
}
