package projection

import (
	"math"
	"math/rand"
	"testing"

	"evr/internal/geom"
)

// rowChunk is the column chunk pt maps rows in: the row lengths either side
// of it are the ones production runs at.
const rowChunk = 256

// pastOne is a direction whose Y/n rounds past 1: its square is subnormal,
// so the norm rounds below |Y|, Asin gets an argument above 1 and ERP's v is
// NaN.
var pastOne = geom.Vec3{Y: 5.843800383582935e-158}

// rowSpecials are the directions where ToPlane's branches and libm's edge
// cases live.
var rowSpecials = []geom.Vec3{
	{Y: 1}, {Y: -1}, // the poles, Y = ±1 exactly
	{X: 1e-17, Y: 1}, {Z: -1e-17, Y: -1},
	pastOne,
	{X: 1e-170, Y: 6.144079354812051e-156},
	{X: 0, Y: 0.3, Z: -1}, {X: math.Copysign(0, -1), Y: 0.3, Z: -1}, // the seam: atan2 gives ±π
	{X: 0, Z: -1}, {X: math.Copysign(0, -1), Z: -1},
	{X: 0, Z: 1}, {X: math.Copysign(0, -1), Y: math.Copysign(0, -1), Z: 1},
	{}, {X: math.Copysign(0, -1), Z: math.Copysign(0, -1)}, // the zero vector, ±0
	{X: 1e-170, Y: -1e-170, Z: 1e-170},                            // nonzero, but its squares underflow
	{X: 1, Y: 1, Z: 1}, {X: -1, Y: 1, Z: 1}, {X: 1, Y: -1, Z: -1}, // cube corners
	{X: math.Inf(1), Y: 0.5, Z: 1}, {X: math.NaN(), Y: 0.5, Z: 1},
}

// checkRow holds ToPlaneRow over dirs to ToPlane element by element, bit
// for bit: a NaN must come out as the same NaN.
func checkRow(t *testing.T, m Method, dirs []geom.Vec3) {
	t.Helper()
	n := len(dirs)
	x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
	for k, d := range dirs {
		x[k], y[k], z[k] = d.X, d.Y, d.Z
	}
	u, v := make([]float64, n), make([]float64, n)
	ToPlaneRow(m, x, y, z, u, v)
	for k, d := range dirs {
		wu, wv := ToPlane(m, d)
		if math.Float64bits(u[k]) != math.Float64bits(wu) || math.Float64bits(v[k]) != math.Float64bits(wv) {
			t.Fatalf("%v row of %d, element %d %+v: ToPlaneRow (%v, %v), ToPlane (%v, %v)",
				m, n, k, d, u[k], v[k], wu, wv)
		}
	}
}

// TestToPlaneRowMatchesToPlane: the row form equals ToPlane bit for bit for
// every projection, at row lengths around the column chunk and with the
// special directions at the row's start, middle and end.
func TestToPlaneRowMatchesToPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, m := range Methods {
		for _, n := range []int{0, 1, rowChunk - 1, rowChunk, rowChunk + 1} {
			dirs := make([]geom.Vec3, n)
			for k := range dirs {
				dirs[k] = randDir(rng)
			}
			checkRow(t, m, dirs)
			if n == 0 {
				continue
			}
			for k, d := range rowSpecials {
				dirs[k*(n-1)/len(rowSpecials)] = d
				dirs[n-1-k%n] = d.Scale(-1)
			}
			checkRow(t, m, dirs)
		}
		checkRow(t, m, rowSpecials)
	}
	// The special cases must exercise what they name.
	if _, v := ToPlane(ERP, pastOne); !math.IsNaN(v) {
		t.Errorf("ERP v of %+v = %v, want NaN: Y/n no longer rounds past 1", pastOne, v)
	}
	pos, _ := ToPlane(ERP, geom.Vec3{Z: -1})
	neg, _ := ToPlane(ERP, geom.Vec3{X: math.Copysign(0, -1), Z: -1})
	if pos != 1 || neg != 0 {
		t.Errorf("ERP u at the seam = %v (+0) and %v (−0), want 1 and 0", pos, neg)
	}
}

// FuzzToPlaneRow holds ToPlaneRow to ToPlane over random rows of random
// directions, with the fuzzed direction (any float64s: signed zeros, NaN,
// ±Inf, subnormals) placed in the row.
func FuzzToPlaneRow(f *testing.F) {
	for _, d := range rowSpecials {
		f.Add(d.X, d.Y, d.Z, int64(1), uint16(rowChunk+1))
	}
	f.Add(0.3, -0.2, 0.9, int64(7), uint16(0))
	f.Fuzz(func(t *testing.T, x, y, z float64, seed int64, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		dirs := make([]geom.Vec3, 1+int(n)%(2*rowChunk))
		for k := range dirs {
			dirs[k] = randDir(rng).Scale(math.Ldexp(1, rng.Intn(64)-32))
		}
		dirs[rng.Intn(len(dirs))] = geom.Vec3{X: x, Y: y, Z: z}
		for _, m := range Methods {
			checkRow(t, m, dirs)
		}
	})
}
