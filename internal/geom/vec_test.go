package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b Vec3, tol float64) bool {
	return almostEq(a.X, b.X, tol) && almostEq(a.Y, b.Y, tol) && almostEq(a.Z, b.Z, tol)
}

func TestVec3Arithmetic(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{-4, 5, 0.5}
	if got := a.Add(b); !vecAlmostEq(got, Vec3{-3, 7, 3.5}, eps) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(2); !vecAlmostEq(got, Vec3{2, 4, 6}, eps) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); !almostEq(got, -4+10+1.5, eps) {
		t.Errorf("Dot = %v", got)
	}
}

func TestVec3Angle(t *testing.T) {
	x, y := Vec3{1, 0, 0}, Vec3{0, 1, 0}
	if got := x.Angle(y); !almostEq(got, math.Pi/2, eps) {
		t.Errorf("orthogonal angle = %v, want π/2", got)
	}
	// Rounding can push a unit dot product past ±1: the clamp keeps the
	// angle finite at either end.
	long := x.Scale(1 + 1e-12)
	if got := x.Angle(long); got != 0 {
		t.Errorf("parallel angle = %v, want 0", got)
	}
	if got := x.Angle(long.Scale(-1)); got != math.Pi {
		t.Errorf("antiparallel angle = %v, want π", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Vec3{3, 4, 12}.Normalize()
	if !almostEq(v.Norm(), 1, eps) {
		t.Errorf("norm after normalize = %v", v.Norm())
	}
	zero := Vec3{}
	if got := zero.Normalize(); got != zero {
		t.Errorf("normalize zero = %v", got)
	}
}

func TestRotationMatricesAreOrthonormal(t *testing.T) {
	for _, m := range []Mat3{RotationX(0.7), RotationY(-1.3), RotationZ(2.9)} {
		id := m.Mul(m.Transpose())
		want := Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if !almostEq(id[i][j], want[i][j], eps) {
					t.Fatalf("R·Rᵀ != I: %v", id)
				}
			}
		}
	}
}

func TestRotationDirections(t *testing.T) {
	// Yaw +90° about +Y takes +Z to +X.
	v := RotationY(math.Pi / 2).Apply(Vec3{0, 0, 1})
	if !vecAlmostEq(v, Vec3{1, 0, 0}, eps) {
		t.Errorf("RotY(90°)·z = %v, want +x", v)
	}
	// Rotation about +X by +90° takes +Y to +Z.
	v = RotationX(math.Pi / 2).Apply(Vec3{0, 1, 0})
	if !vecAlmostEq(v, Vec3{0, 0, 1}, eps) {
		t.Errorf("RotX(90°)·y = %v, want +z", v)
	}
	// Rotation about +Z by +90° takes +X to +Y.
	v = RotationZ(math.Pi / 2).Apply(Vec3{1, 0, 0})
	if !vecAlmostEq(v, Vec3{0, 1, 0}, eps) {
		t.Errorf("RotZ(90°)·x = %v, want +y", v)
	}
}

func TestMatMulAssociativity(t *testing.T) {
	a, b, c := RotationX(0.3), RotationY(1.1), RotationZ(-0.8)
	l := a.Mul(b).Mul(c)
	r := a.Mul(b.Mul(c))
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEq(l[i][j], r[i][j], eps) {
				t.Fatalf("associativity violated at (%d,%d): %v vs %v", i, j, l[i][j], r[i][j])
			}
		}
	}
}

func TestRotationPreservesNormProperty(t *testing.T) {
	f := func(x, y, z, ax, ay, az float64) bool {
		// Clamp angles to a sane range to avoid huge Sincos arguments.
		ax = math.Mod(ax, math.Pi)
		ay = math.Mod(ay, math.Pi)
		az = math.Mod(az, math.Pi)
		v := Vec3{math.Mod(x, 100), math.Mod(y, 100), math.Mod(z, 100)}
		m := RotationX(ax).Mul(RotationY(ay)).Mul(RotationZ(az))
		return almostEq(m.Apply(v).Norm(), v.Norm(), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
