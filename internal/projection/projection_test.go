package projection

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"evr/internal/geom"
)

// dist is the Euclidean distance between a and b.
func dist(a, b geom.Vec3) float64 { return a.Add(b.Scale(-1)).Norm() }

func randDir(rng *rand.Rand) geom.Vec3 {
	// Uniform on the sphere via normalized Gaussians.
	for {
		v := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		if v.Norm() > 1e-6 {
			return v.Normalize()
		}
	}
}

func TestMethodString(t *testing.T) {
	if ERP.String() != "ERP" || CMP.String() != "CMP" || EAC.String() != "EAC" {
		t.Error("method names broken")
	}
	if Method(99).String() != "Method(99)" {
		t.Error("unknown method string broken")
	}
}

func TestRoundTripSphereToPlaneAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, m := range Methods {
		for k := 0; k < 2000; k++ {
			dir := randDir(rng)
			u, v := ToPlane(m, dir)
			if u < 0 || u >= 1.0000001 || v < 0 || v > 1.0000001 {
				t.Fatalf("%v: coords out of range: %v %v", m, u, v)
			}
			back := ToSphere(m, u, v)
			if d := dist(back, dir); d > 1e-9 {
				t.Fatalf("%v: round trip error %v for dir %v (u=%v v=%v back=%v)", m, d, dir, u, v, back)
			}
		}
	}
}

func TestRoundTripPlaneToSphereERP(t *testing.T) {
	// The plane→sphere→plane direction only holds away from the poles and
	// seam where the mapping collapses.
	rng := rand.New(rand.NewSource(31))
	for k := 0; k < 2000; k++ {
		u := rng.Float64()*0.98 + 0.01
		v := rng.Float64()*0.9 + 0.05
		dir := ToSphere(ERP, u, v)
		u2, v2 := ToPlane(ERP, dir)
		if math.Abs(u2-u) > 1e-9 || math.Abs(v2-v) > 1e-9 {
			t.Fatalf("ERP plane round trip (%v,%v) -> (%v,%v)", u, v, u2, v2)
		}
	}
}

func TestERPAnchors(t *testing.T) {
	// +Z (theta=0) maps to the horizontal center; +Y (north pole) to v=0.
	u, v := ToPlane(ERP, geom.Vec3{Z: 1})
	if math.Abs(u-0.5) > 1e-12 || math.Abs(v-0.5) > 1e-12 {
		t.Errorf("+Z maps to (%v,%v), want center", u, v)
	}
	_, v = ToPlane(ERP, geom.Vec3{Y: 1})
	if math.Abs(v-0) > 1e-12 {
		t.Errorf("north pole v = %v, want 0", v)
	}
	_, v = ToPlane(ERP, geom.Vec3{Y: -1})
	if math.Abs(v-1) > 1e-12 {
		t.Errorf("south pole v = %v, want 1", v)
	}
}

func TestCubeFaceCenters(t *testing.T) {
	// Each axis direction must land in the center of its face cell.
	cases := []struct {
		dir      geom.Vec3
		wantU    float64
		wantV    float64
		faceName string
	}{
		{geom.Vec3{X: 1}, 1.0 / 6, 0.25, "+X"},
		{geom.Vec3{X: -1}, 3.0 / 6, 0.25, "-X"},
		{geom.Vec3{Y: 1}, 5.0 / 6, 0.25, "+Y"},
		{geom.Vec3{Y: -1}, 1.0 / 6, 0.75, "-Y"},
		{geom.Vec3{Z: 1}, 3.0 / 6, 0.75, "+Z"},
		{geom.Vec3{Z: -1}, 5.0 / 6, 0.75, "-Z"},
	}
	for _, m := range []Method{CMP, EAC} {
		for _, c := range cases {
			u, v := ToPlane(m, c.dir)
			if math.Abs(u-c.wantU) > 1e-12 || math.Abs(v-c.wantV) > 1e-12 {
				t.Errorf("%v face %s center = (%v,%v), want (%v,%v)", m, c.faceName, u, v, c.wantU, c.wantV)
			}
		}
	}
}

func TestEACWarpProperties(t *testing.T) {
	// The warp is odd, fixes ±1 and 0, and is monotonic.
	if eacWarp(0) != 0 || math.Abs(eacWarp(1)-1) > 1e-12 || math.Abs(eacWarp(-1)+1) > 1e-12 {
		t.Error("eacWarp does not fix {-1, 0, 1}")
	}
	prop := func(p float64) bool {
		p = math.Mod(p, 1)
		w := eacWarp(p)
		return math.Abs(eacUnwarp(w)-p) < 1e-12 && math.Abs(w) <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(32))}); err != nil {
		t.Error(err)
	}
}

func TestEACMoreUniformThanCMP(t *testing.T) {
	// The point of EAC: angular step per pixel step is flatter across a
	// face. Compare the angle subtended by [0.0,0.1] and [0.9,1.0] spans of
	// a face coordinate; CMP's ratio must be farther from 1 than EAC's.
	span := func(m Method, lo, hi float64) float64 {
		// Use the +Z face, horizontal coordinate: frame u in [1/3, 2/3).
		d1 := ToSphere(m, (1+lo)/3.0, 0.75)
		d2 := ToSphere(m, (1+hi)/3.0, 0.75)
		return d1.Angle(d2)
	}
	cmpRatio := span(CMP, 0.45, 0.55) / span(CMP, 0.85, 0.95)
	eacRatio := span(EAC, 0.45, 0.55) / span(EAC, 0.85, 0.95)
	if math.Abs(eacRatio-1) >= math.Abs(cmpRatio-1) {
		t.Errorf("EAC ratio %v should be closer to 1 than CMP ratio %v", eacRatio, cmpRatio)
	}
}

func TestF2CCoversAllFaces(t *testing.T) {
	seen := map[Face]bool{}
	for _, u := range []float64{0.1, 0.4, 0.9} {
		for _, v := range []float64{0.2, 0.7} {
			f, fu, fv := F2C(u, v)
			seen[f] = true
			if fu < 0 || fu > 1 || fv < 0 || fv > 1 {
				t.Fatalf("face coords out of range: %v %v", fu, fv)
			}
		}
	}
	if len(seen) != 6 {
		t.Errorf("expected all 6 faces, saw %d", len(seen))
	}
}

func TestWrapBehavior(t *testing.T) {
	// Horizontal wrap: u = -0.25 equals u = 0.75 for ERP.
	a := ToSphere(ERP, -0.25, 0.5)
	b := ToSphere(ERP, 0.75, 0.5)
	if dist(a, b) > 1e-12 {
		t.Error("ERP does not wrap horizontally")
	}
	// Vertical clamp keeps v=1.2 finite.
	c := ToSphere(ERP, 0.5, 1.2)
	if math.IsNaN(c.X + c.Y + c.Z) {
		t.Error("vertical clamp produced NaN")
	}
}

func TestViewportRayCenter(t *testing.T) {
	vp := Viewport{Width: 101, Height: 101, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	o := geom.Orientation{Yaw: 0.3, Pitch: -0.2}
	center := vp.Ray(o, 50, 50)
	if d := dist(center, o.Forward()); d > 0.03 {
		t.Errorf("center ray deviates from forward by %v", d)
	}
}

func TestViewportRaysInsideFOV(t *testing.T) {
	vp := Viewport{Width: 32, Height: 32, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	o := geom.Orientation{Yaw: 1.0, Pitch: 0.4}
	half := math.Sqrt(2) * geom.Radians(110) / 2 // diagonal half-angle bound
	for j := 0; j < vp.Height; j++ {
		for i := 0; i < vp.Width; i++ {
			ray := vp.Ray(o, i, j)
			ang := ray.Angle(o.Forward())
			if ang > half+1e-9 {
				t.Fatalf("ray (%d,%d) outside FOV: %v rad", i, j, ang)
			}
		}
	}
}

func TestViewportContains(t *testing.T) {
	vp := Viewport{Width: 64, Height: 64, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	o := geom.Orientation{}
	if !vp.Contains(o, geom.Vec3{Z: 1}) {
		t.Error("forward direction must be contained")
	}
	if vp.Contains(o, geom.Vec3{Z: -1}) {
		t.Error("backward direction must not be contained")
	}
	if vp.Contains(o, geom.Vec3{X: 1}) {
		t.Error("90° off-axis must not be contained for 110° FOV")
	}
	// All rays of the viewport itself must be contained.
	for j := 0; j < vp.Height; j += 7 {
		for i := 0; i < vp.Width; i += 7 {
			if !vp.Contains(o, vp.Ray(o, i, j)) {
				t.Fatalf("own ray (%d,%d) not contained", i, j)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	prop := func(_ int) bool {
		dir := randDir(rng)
		for _, m := range Methods {
			u, v := ToPlane(m, dir)
			if dist(ToSphere(m, u, v), dir) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSeamContinuity(t *testing.T) {
	// Directions straddling the ERP seam (theta = ±π) must map back
	// continuously: tiny steps in u across the wrap never produce NaNs or
	// jumps. (Cubemap layouts are deliberately discontinuous between face
	// cells, so this applies to ERP only.)
	prev := ToSphere(ERP, 0.999, 0.5)
	for _, u := range []float64{0.9995, 0.0, 0.0005, 0.001} {
		cur := ToSphere(ERP, u, 0.5)
		if math.IsNaN(cur.X + cur.Y + cur.Z) {
			t.Fatalf("NaN at seam u=%v", u)
		}
		if step := dist(prev, cur); step > 0.05 {
			t.Fatalf("discontinuity %v crossing the seam at u=%v", step, u)
		}
		prev = cur
	}
}

func TestPolesAreStable(t *testing.T) {
	// Exactly at the poles every u maps to the same direction for ERP.
	top1 := ToSphere(ERP, 0.1, 0)
	top2 := ToSphere(ERP, 0.7, 0)
	if dist(top1, top2) > 1e-9 {
		t.Errorf("north pole not unique: %v vs %v", top1, top2)
	}
	if math.Abs(top1.Y-1) > 1e-9 {
		t.Errorf("north pole direction %v, want +Y", top1)
	}
}

func TestContainsConsistentWithToPlaneRoundTrip(t *testing.T) {
	// Any direction inside the viewport must round-trip through the
	// projection without leaving the unit sphere.
	rng := rand.New(rand.NewSource(34))
	vp := Viewport{Width: 16, Height: 16, FOVX: geom.Radians(100), FOVY: geom.Radians(100)}
	o := geom.Orientation{Yaw: 0.5, Pitch: -0.2}
	for i := 0; i < 500; i++ {
		dir := randDir(rng)
		if !vp.Contains(o, dir) {
			continue
		}
		for _, m := range Methods {
			u, v := ToPlane(m, dir)
			if dist(ToSphere(m, u, v), dir) > 1e-9 {
				t.Fatalf("%v: contained direction fails round trip", m)
			}
		}
	}
}
