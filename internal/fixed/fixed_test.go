package fixed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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
		got := f.FromFloat(x).Float()
		if math.Abs(got-x) > ulp {
			t.Errorf("round trip %v -> %v (ulp %v)", x, got, ulp)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	f := Format{TotalBits: 16, IntBits: 8} // range [-128, 128)
	if got := f.FromFloat(1e9).Float(); got < 127.9 || got > 128 {
		t.Errorf("positive saturation = %v", got)
	}
	if got := f.FromFloat(-1e9).Float(); got != -128 {
		t.Errorf("negative saturation = %v", got)
	}
	if got := f.FromFloat(math.NaN()).Float(); got != 0 {
		t.Errorf("NaN should quantize to 0, got %v", got)
	}
}

func TestAddSubSaturate(t *testing.T) {
	f := Format{TotalBits: 8, IntBits: 8} // pure integers [-128, 127]
	a := f.FromInt(100)
	b := f.FromInt(50)
	if got := a.Add(b).Int(); got != 127 {
		t.Errorf("saturated add = %v, want 127", got)
	}
	if got := a.Neg().Sub(b).Int(); got != -128 {
		t.Errorf("saturated sub = %v, want -128", got)
	}
	if got := a.Sub(b).Int(); got != 50 {
		t.Errorf("add = %v, want 50", got)
	}
}

func TestMulBasic(t *testing.T) {
	f := Q2810
	cases := []struct{ a, b, want float64 }{
		{2, 3, 6},
		{-2, 3, -6},
		{0.5, 0.5, 0.25},
		{-0.25, -0.25, 0.0625},
		{100, 0, 0},
		{1.5, 2.5, 3.75},
	}
	ulp := 1.0 / float64(int64(1)<<uint(f.FracBits()))
	for _, c := range cases {
		got := f.FromFloat(c.a).Mul(f.FromFloat(c.b)).Float()
		if math.Abs(got-c.want) > 2*ulp {
			t.Errorf("%v * %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMulSaturates(t *testing.T) {
	f := Q2810 // range [-512, 512)
	got := f.FromFloat(400).Mul(f.FromFloat(400)).Float()
	if got < 511 || got > 512 {
		t.Errorf("saturated mul = %v, want ~512", got)
	}
	got = f.FromFloat(-400).Mul(f.FromFloat(400)).Float()
	if got != -512 {
		t.Errorf("saturated mul = %v, want -512", got)
	}
}

func TestDivBasic(t *testing.T) {
	f := Q2810
	ulp := 1.0 / float64(int64(1)<<uint(f.FracBits()))
	cases := []struct{ a, b, want float64 }{
		{6, 3, 2},
		{-6, 3, -2},
		{1, 4, 0.25},
		{5, -2, -2.5},
		{0, 7, 0},
	}
	for _, c := range cases {
		got := f.FromFloat(c.a).Div(f.FromFloat(c.b)).Float()
		if math.Abs(got-c.want) > 2*ulp {
			t.Errorf("%v / %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDivByZeroSaturates(t *testing.T) {
	f := Q2810
	if got := f.FromFloat(1).Div(f.Zero()); got.Raw != f.word().max {
		t.Errorf("1/0 = %v, want max", got)
	}
	if got := f.FromFloat(-1).Div(f.Zero()); got.Raw != f.word().min {
		t.Errorf("-1/0 = %v, want min", got)
	}
}

func TestMulDivInverseProperty(t *testing.T) {
	f := Q2810
	ulp := 1.0 / float64(int64(1)<<uint(f.FracBits()))
	prop := func(a, b float64) bool {
		// Keep |a·b| within the [28, 10] range (±512) so Mul cannot saturate.
		a = math.Mod(a, 20)
		b = math.Mod(b, 20)
		if math.Abs(b) < 0.1 {
			return true
		}
		x := f.FromFloat(a)
		y := f.FromFloat(b)
		back := x.Mul(y).Div(y).Float()
		return math.Abs(back-x.Float()) < math.Abs(b)*4*ulp+4*ulp
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Error(err)
	}
}

func TestShifts(t *testing.T) {
	f := Q2810
	a := f.FromFloat(4)
	if got := a.Shr(2).Float(); got != 1 {
		t.Errorf("4>>2 = %v", got)
	}
	if got := a.Shl(2).Float(); got != 16 {
		t.Errorf("4<<2 = %v", got)
	}
	// Shl saturates at the format limit.
	if got := f.FromFloat(500).Shl(4); got.Raw != f.word().max {
		t.Errorf("500<<4 should saturate, got %v", got)
	}
}

func TestMulIntAndHelpers(t *testing.T) {
	f := Q2810
	if got := f.FromFloat(1.5).MulInt(4).Float(); got != 6 {
		t.Errorf("1.5*4 = %v", got)
	}
	if got := f.FromFloat(-3).Abs().Float(); got != 3 {
		t.Errorf("abs(-3) = %v", got)
	}
	if f.One().Float() != 1 || !f.Zero().IsZero() {
		t.Error("One/Zero broken")
	}
	if f.Epsilon().Float() <= 0 {
		t.Error("Epsilon not positive")
	}
	if f.FromInt(-3).Int() != -3 {
		t.Error("FromInt/Int round trip broken")
	}
}

func TestCmp(t *testing.T) {
	f := Q2810
	a, b := f.FromFloat(1), f.FromFloat(2)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Error("Cmp ordering broken")
	}
}

func TestFormatString(t *testing.T) {
	if Q2810.String() != "[28, 10]" {
		t.Errorf("String = %q", Q2810.String())
	}
}

func TestMul128Extremes(t *testing.T) {
	f := Format{TotalBits: 64, IntBits: 32}
	big := f.FromFloat(30000.25)
	got := big.Mul(big).Float()
	want := 30000.25 * 30000.25
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("wide mul = %v, want %v", got, want)
	}
}
