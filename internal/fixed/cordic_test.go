package fixed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// tolFor returns an error tolerance appropriate to the format: CORDIC
// converges to within a few ulps of the representation.
func tolFor(f Format) float64 {
	return 16.0 / float64(int64(1)<<uint(f.FracBits()))
}

func TestSinCosAgainstMath(t *testing.T) {
	f := Q2810
	tol := tolFor(f)
	for deg := -720; deg <= 720; deg += 7 {
		a := float64(deg) * math.Pi / 180
		s, c := f.Core().SinCos(raw(f, a))
		if math.Abs(flt(f, s)-math.Sin(a)) > tol {
			t.Errorf("sin(%d°) = %v, want %v", deg, flt(f, s), math.Sin(a))
		}
		if math.Abs(flt(f, c)-math.Cos(a)) > tol {
			t.Errorf("cos(%d°) = %v, want %v", deg, flt(f, c), math.Cos(a))
		}
	}
}

func TestSinCosPythagoreanProperty(t *testing.T) {
	f := Q2810
	core := f.Core()
	tol := tolFor(f) * 4
	prop := func(a float64) bool {
		a = math.Mod(a, 10)
		s, c := core.SinCos(raw(f, a))
		sum := flt(f, core.Add(core.Mul(s, s), core.Mul(c, c)))
		return math.Abs(sum-1) < tol
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Error(err)
	}
}

func TestAtan2Quadrants(t *testing.T) {
	f := Q2810
	tol := tolFor(f)
	cases := []struct{ y, x float64 }{
		{0, 1}, {1, 1}, {1, 0}, {1, -1}, {0, -1},
		{-1, -1}, {-1, 0}, {-1, 1},
		{0.5, 2}, {-0.25, -3}, {3, -0.5},
	}
	for _, c := range cases {
		got := flt(f, f.Core().Atan2(raw(f, c.y), raw(f, c.x)))
		want := math.Atan2(c.y, c.x)
		// atan2(0,-1) may come back as -π; both ends are the same angle.
		d := math.Abs(got - want)
		if d > math.Pi {
			d = 2*math.Pi - d
		}
		if d > tol {
			t.Errorf("atan2(%v, %v) = %v, want %v", c.y, c.x, got, want)
		}
	}
}

func TestAtan2Zero(t *testing.T) {
	f := Q2810
	if got := f.Core().Atan2(0, 0); got != 0 {
		t.Errorf("atan2(0,0) = %v, want 0", got)
	}
}

func TestAtan2Property(t *testing.T) {
	f := Q2810
	tol := tolFor(f) * 2
	prop := func(y, x float64) bool {
		y = math.Mod(y, 100)
		x = math.Mod(x, 100)
		if math.Hypot(x, y) < 0.05 {
			return true // too close to the singularity for fixed point
		}
		got := flt(f, f.Core().Atan2(raw(f, y), raw(f, x)))
		want := math.Atan2(y, x)
		d := math.Abs(got - want)
		if d > math.Pi {
			d = 2*math.Pi - d
		}
		return d < tol
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}

func TestSqrtExactSquares(t *testing.T) {
	f := Q2810
	tol := tolFor(f)
	for _, x := range []float64{0, 1, 4, 9, 16, 100, 0.25, 0.0625, 2, 3, 510} {
		got := flt(f, f.Core().Sqrt(raw(f, x)))
		if math.Abs(got-math.Sqrt(x)) > tol {
			t.Errorf("sqrt(%v) = %v, want %v", x, got, math.Sqrt(x))
		}
	}
}

func TestSqrtNegativeClamps(t *testing.T) {
	f := Q2810
	if got := f.Core().Sqrt(raw(f, -4)); got != 0 {
		t.Errorf("sqrt(-4) = %v, want 0", got)
	}
}

func TestSqrtProperty(t *testing.T) {
	f := Q2810
	c := f.Core()
	prop := func(x float64) bool {
		x = math.Abs(math.Mod(x, 500))
		r := c.Sqrt(raw(f, x))
		back := flt(f, c.Mul(r, r))
		// sqrt then square must land within a few ulps scaled by the value.
		return math.Abs(back-x) <= (math.Sqrt(x)+1)*tolFor(f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

func TestPrecisionImprovesWithWidth(t *testing.T) {
	// The whole premise of Fig. 11: more fractional bits, less error.
	narrow := Format{TotalBits: 16, IntBits: 6}
	wide := Format{TotalBits: 48, IntBits: 6}
	var errNarrow, errWide float64
	for deg := 0; deg < 360; deg += 11 {
		a := float64(deg) * math.Pi / 180
		sn, _ := narrow.Core().SinCos(raw(narrow, a))
		sw, _ := wide.Core().SinCos(raw(wide, a))
		errNarrow += math.Abs(flt(narrow, sn) - math.Sin(a))
		errWide += math.Abs(flt(wide, sw) - math.Sin(a))
	}
	if errWide >= errNarrow {
		t.Errorf("wide error %v should beat narrow error %v", errWide, errNarrow)
	}
}
