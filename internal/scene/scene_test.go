package scene

import (
	"math"
	"testing"

	"evr/internal/geom"
	"evr/internal/projection"
)

func TestCatalogContents(t *testing.T) {
	cat := Catalog()
	if len(cat) != 6 {
		t.Fatalf("catalog has %d videos, want 6", len(cat))
	}
	wantObjects := map[string]int{
		"Elephant": 8, "Paris": 13, "RS": 3, "NYC": 6, "Rhino": 11, "Timelapse": 5,
	}
	for _, v := range cat {
		want, ok := wantObjects[v.Name]
		if !ok {
			t.Errorf("unexpected video %q", v.Name)
			continue
		}
		if len(v.Objects) != want {
			t.Errorf("%s has %d objects, want %d (Fig. 5 x-axis)", v.Name, len(v.Objects), want)
		}
		if v.FPS != 30 {
			t.Errorf("%s FPS = %d, want 30", v.Name, v.FPS)
		}
		if v.Frames() != 1800 {
			t.Errorf("%s frames = %d, want 1800", v.Name, v.Frames())
		}
		if v.Complexity <= 0 || v.Complexity > 1 {
			t.Errorf("%s complexity %v out of (0,1]", v.Name, v.Complexity)
		}
	}
}

func TestEvalAndPowerSets(t *testing.T) {
	es := EvalSet()
	if len(es) != 5 || es[0].Name != "Rhino" || es[4].Name != "Elephant" {
		t.Errorf("EvalSet order wrong: %v", names(es))
	}
	ps := PowerSet()
	if len(ps) != 5 || ps[0].Name != "Elephant" || ps[3].Name != "NYC" {
		t.Errorf("PowerSet order wrong: %v", names(ps))
	}
}

func names(vs []VideoSpec) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

func TestByName(t *testing.T) {
	if _, ok := ByName("Rhino"); !ok {
		t.Error("Rhino missing")
	}
	if _, ok := ByName("Nope"); ok {
		t.Error("unknown video found")
	}
}

func TestRhinoHasLowestComplexity(t *testing.T) {
	// Fig. 3b: Rhino's PT share is highest because its content is cheapest
	// to decode; that requires the lowest complexity in the eval set.
	rhino, _ := ByName("Rhino")
	for _, v := range EvalSet() {
		if v.Name != "Rhino" && v.Complexity <= rhino.Complexity {
			t.Errorf("%s complexity %v should exceed Rhino's %v", v.Name, v.Complexity, rhino.Complexity)
		}
	}
}

func TestObjectCenterSmooth(t *testing.T) {
	v, _ := ByName("Paris")
	o := v.Objects[0]
	const dt = 1.0 / 30
	prev := o.Center(0)
	for i := 1; i < 300; i++ {
		cur := o.Center(float64(i) * dt)
		if step := prev.Add(cur.Scale(-1)).Norm(); step > 0.05 {
			t.Fatalf("object jumped %v in one frame at %d", step, i)
		}
		if math.Abs(cur.Norm()-1) > 1e-9 {
			t.Fatalf("object center not on unit sphere: %v", cur.Norm())
		}
		prev = cur
	}
}

func TestObjectsAtGroundTruth(t *testing.T) {
	v, _ := ByName("RS")
	states := v.ObjectsAt(3.5)
	if len(states) != 3 {
		t.Fatalf("got %d states", len(states))
	}
	for i, s := range states {
		if s.ID != i {
			t.Errorf("state %d has ID %d", i, s.ID)
		}
		if s.Radius <= 0 {
			t.Errorf("object %d radius %v", i, s.Radius)
		}
	}
}

func TestColorAtObjectVsBackground(t *testing.T) {
	v, _ := ByName("Timelapse")
	o := v.Objects[0]
	center := o.Center(2.0)
	r, g, b := v.ColorAt(2.0, center)
	if r != o.Color[0] || g != o.Color[1] || b != o.Color[2] {
		t.Errorf("object center color = %d,%d,%d, want %v", r, g, b, o.Color)
	}
	// A direction far from every object must be background (muted).
	away := center.Scale(-1)
	ar, ag, ab := v.ColorAt(2.0, away)
	if ar == o.Color[0] && ag == o.Color[1] && ab == o.Color[2] {
		t.Error("antipodal direction returned the object color")
	}
}

func TestObjectRimIsDark(t *testing.T) {
	v, _ := ByName("Elephant")
	o := v.Objects[0]
	center := geom.FromCartesian(o.Center(0))
	// Sample at 90% of the radius: inside the rim band.
	rim := geom.Spherical{Theta: center.Theta, Phi: center.Phi + o.Radius*0.9}.ToCartesian()
	r, g, b := v.ColorAt(0, rim)
	if int(r)+int(g)+int(b) >= (int(o.Color[0])+int(o.Color[1])+int(o.Color[2]))/2 {
		t.Errorf("rim color %d,%d,%d not darker than body %v", r, g, b, o.Color)
	}
}

func TestRenderFrameDeterministicAndSized(t *testing.T) {
	v, _ := ByName("RS")
	a := v.RenderFrame(1.0, projection.ERP, 64, 32)
	b := v.RenderFrame(1.0, projection.ERP, 64, 32)
	if !a.Equal(b) {
		t.Error("render not deterministic")
	}
	if a.W != 64 || a.H != 32 {
		t.Errorf("frame %dx%d", a.W, a.H)
	}
}

func TestRenderVideoLength(t *testing.T) {
	v, _ := ByName("RS")
	fs := v.RenderVideo(projection.ERP, 32, 16, 5)
	if len(fs) != 5 {
		t.Errorf("rendered %d frames, want 5", len(fs))
	}
	huge := v.RenderVideo(projection.ERP, 8, 8, v.Frames()+500)
	if len(huge) != v.Frames() {
		t.Errorf("over-request returned %d frames, want %d", len(huge), v.Frames())
	}
}

func TestObjectVisibleInRenderedFrame(t *testing.T) {
	// The object's color must actually appear in a rendered ERP frame.
	v, _ := ByName("RS")
	o := v.Objects[0]
	f := v.RenderFrame(0, projection.ERP, 128, 64)
	found := false
	for i := 0; i < len(f.Pix); i += 3 {
		if f.Pix[i] == o.Color[0] && f.Pix[i+1] == o.Color[1] && f.Pix[i+2] == o.Color[2] {
			found = true
			break
		}
	}
	if !found {
		t.Error("object color not present in rendered frame")
	}
}

func TestPitchClamped(t *testing.T) {
	o := ObjectSpec{BasePitch: 1.5, AmpPitch: 0.5, FreqPitch: 1}
	for tt := 0.0; tt < 10; tt += 0.1 {
		c := o.Center(tt)
		if math.IsNaN(c.X + c.Y + c.Z) {
			t.Fatal("NaN direction")
		}
	}
}
