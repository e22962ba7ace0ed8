package vision

import (
	"math"
	"testing"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/scene"
)

// fill paints every pixel of f one colour.
func fill(f *frame.Frame, r, g, b byte) {
	for i := 0; i < len(f.Pix); i += 3 {
		f.Pix[i], f.Pix[i+1], f.Pix[i+2] = r, g, b
	}
}

func TestDetectFindsSceneObjects(t *testing.T) {
	// Every ground-truth object of RS (3 well-separated objects) must be
	// detected in a rendered ERP frame, with accurate directions.
	v, _ := scene.ByName("RS")
	f := v.RenderFrame(0, projection.ERP, 256, 128)
	dets := Detect(f, projection.ERP)
	truth := v.ObjectsAt(0)
	if len(dets) < len(truth) {
		t.Fatalf("detected %d objects, want ≥ %d", len(dets), len(truth))
	}
	for _, gt := range truth {
		best := math.Inf(1)
		for _, d := range dets {
			if ang := d.Dir.Angle(gt.Dir); ang < best {
				best = ang
			}
		}
		if best > gt.Radius {
			t.Errorf("object %d: nearest detection %v rad away (radius %v)", gt.ID, best, gt.Radius)
		}
	}
}

func TestDetectRadiusEstimate(t *testing.T) {
	v, _ := scene.ByName("RS")
	f := v.RenderFrame(0, projection.ERP, 256, 128)
	dets := Detect(f, projection.ERP)
	for _, d := range dets {
		if d.Radius <= 0 || d.Radius > 1.0 {
			t.Errorf("implausible radius %v", d.Radius)
		}
		if d.X1 < d.X0 || d.Y1 < d.Y0 {
			t.Errorf("degenerate bbox %+v", d)
		}
	}
}

func TestDetectEmptyAndUniform(t *testing.T) {
	f := frame.New(32, 16)
	fill(f, 100, 100, 100)
	if dets := Detect(f, projection.ERP); len(dets) != 0 {
		t.Errorf("uniform gray frame produced %d detections", len(dets))
	}
	if dets := Detect(frame.New(0, 0), projection.ERP); dets != nil {
		t.Error("empty frame should give nil")
	}
}

func TestMinAreaFilter(t *testing.T) {
	f := frame.New(64, 32)
	fill(f, 100, 100, 100)
	// One 1-pixel speck and one 5×5 block of saturated red.
	f.Set(3, 3, 255, 0, 0)
	for y := 10; y < 15; y++ {
		for x := 20; x < 25; x++ {
			f.Set(x, y, 255, 0, 0)
		}
	}
	dets := Detect(f, projection.ERP)
	if len(dets) != 1 {
		t.Fatalf("got %d detections, want 1 (speck filtered)", len(dets))
	}
	if dets[0].Area != 25 {
		t.Errorf("area = %d, want 25", dets[0].Area)
	}
}

func TestSeamWrapping(t *testing.T) {
	// An object straddling the ERP seam (x=0 / x=w-1) must be one
	// component, not two.
	f := frame.New(64, 32)
	fill(f, 100, 100, 100)
	for y := 14; y < 18; y++ {
		for _, x := range []int{62, 63, 0, 1} {
			f.Set(x, y, 0, 255, 0)
		}
	}
	dets := Detect(f, projection.ERP)
	if len(dets) != 1 {
		t.Fatalf("seam object split into %d detections", len(dets))
	}
}

func TestTrackerMaintainsIdentity(t *testing.T) {
	v, _ := scene.ByName("RS")
	tr := NewTracker(0.3, 1.0)
	idAt := map[int][]int{}
	for fi := 0; fi < 30; fi++ {
		tt := float64(fi) / 30
		f := v.RenderFrame(tt, projection.ERP, 192, 96)
		tracks := tr.Update(Detect(f, projection.ERP), tt)
		for _, trk := range tracks {
			idAt[fi] = append(idAt[fi], trk.ID)
		}
	}
	// The same 3 IDs must persist from first to last frame.
	if len(idAt[0]) < 3 || len(idAt[29]) < 3 {
		t.Fatalf("tracks lost: %d then %d", len(idAt[0]), len(idAt[29]))
	}
	for i, id := range idAt[0][:3] {
		if idAt[29][i] != id {
			t.Errorf("track %d changed identity: %v -> %v", i, idAt[0], idAt[29])
		}
	}
}

func TestTrackerDropsStaleTracks(t *testing.T) {
	tr := NewTracker(0.2, 0.5)
	d := Detection{Dir: geom.Vec3{Z: 1}, Radius: 0.1}
	tr.Update([]Detection{d}, 0)
	if len(tr.Tracks()) != 1 {
		t.Fatal("track not created")
	}
	tr.Update(nil, 0.4)
	if len(tr.Tracks()) != 1 {
		t.Fatal("track dropped too early")
	}
	tr.Update(nil, 1.0)
	if len(tr.Tracks()) != 0 {
		t.Fatal("stale track not dropped")
	}
}

func TestTrackerSpawnsForFarDetections(t *testing.T) {
	tr := NewTracker(0.1, 10)
	tr.Update([]Detection{{Dir: geom.Vec3{Z: 1}}}, 0)
	tracks := tr.Update([]Detection{{Dir: geom.Vec3{X: 1}}}, 0.1)
	if len(tracks) != 2 {
		t.Fatalf("far detection did not spawn a new track: %d", len(tracks))
	}
	if tracks[0].ID == tracks[1].ID {
		t.Error("duplicate track IDs")
	}
}

func TestTrackerGreedyPrefersNearest(t *testing.T) {
	tr := NewTracker(0.5, 10)
	a := geom.Spherical{Theta: 0, Phi: 0}.ToCartesian()
	b := geom.Spherical{Theta: 0.4, Phi: 0}.ToCartesian()
	tr.Update([]Detection{{Dir: a}, {Dir: b}}, 0)
	// Move both slightly; identities must follow the nearer one.
	a2 := geom.Spherical{Theta: 0.05, Phi: 0}.ToCartesian()
	b2 := geom.Spherical{Theta: 0.45, Phi: 0}.ToCartesian()
	tracks := tr.Update([]Detection{{Dir: b2}, {Dir: a2}}, 0.1)
	if len(tracks) != 2 {
		t.Fatalf("%d tracks", len(tracks))
	}
	if tracks[0].Dir.Angle(a2) > 0.01 {
		t.Error("track 0 did not follow object a")
	}
}

func TestKMeansBasicSeparation(t *testing.T) {
	var dirs []geom.Vec3
	for i := 0; i < 5; i++ {
		dirs = append(dirs, geom.Spherical{Theta: 0.05 * float64(i), Phi: 0}.ToCartesian())
	}
	for i := 0; i < 5; i++ {
		dirs = append(dirs, geom.Spherical{Theta: math.Pi - 0.05*float64(i), Phi: 0}.ToCartesian())
	}
	clusters := KMeans(dirs, 2, 1)
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters", len(clusters))
	}
	for _, c := range clusters {
		if len(c.Members) != 5 {
			t.Errorf("cluster sizes wrong: %d", len(c.Members))
		}
		// All members on the same side as the center.
		for _, m := range c.Members {
			if dirs[m].Dot(c.Center) < 0.5 {
				t.Errorf("member %d far from its center", m)
			}
		}
	}
}

func TestKMeansDegenerateInputs(t *testing.T) {
	if c := KMeans(nil, 3, 1); c != nil {
		t.Error("nil input should give nil clusters")
	}
	dirs := []geom.Vec3{{Z: 1}, {X: 1}}
	clusters := KMeans(dirs, 5, 1)
	total := 0
	for _, c := range clusters {
		total += len(c.Members)
	}
	if total != 2 {
		t.Errorf("membership covers %d of 2", total)
	}
	if c := KMeans(dirs, 0, 1); c != nil {
		t.Error("k=0 should give nil")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	var dirs []geom.Vec3
	for i := 0; i < 20; i++ {
		dirs = append(dirs, geom.Spherical{Theta: float64(i) * 0.3, Phi: 0.1 * float64(i%3)}.ToCartesian())
	}
	a := KMeans(dirs, 4, 42)
	b := KMeans(dirs, 4, 42)
	if len(a) != len(b) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a {
		if a[i].Center != b[i].Center || len(a[i].Members) != len(b[i].Members) {
			t.Fatal("nondeterministic clustering")
		}
	}
}

func TestKMeansCoversAllInputs(t *testing.T) {
	var dirs []geom.Vec3
	for i := 0; i < 13; i++ {
		dirs = append(dirs, geom.Spherical{Theta: float64(i) * 0.45, Phi: 0}.ToCartesian())
	}
	clusters := KMeans(dirs, 3, 7)
	seen := map[int]bool{}
	for _, c := range clusters {
		for _, m := range c.Members {
			if seen[m] {
				t.Fatalf("member %d assigned twice", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != 13 {
		t.Errorf("only %d of 13 members assigned", len(seen))
	}
}
