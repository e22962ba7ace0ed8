package delivery

import (
	"math"
	"testing"

	"evr/internal/geom"
	"evr/internal/netsim"
)

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		ModeAuto:  "auto",
		ModeFOV:   "fov",
		ModeTiled: "tiled",
		ModeOrig:  "orig",
		Mode(9):   "mode(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
		// ParseMode inverts String for every real mode and rejects the rest.
		got, err := ParseMode(want)
		if m <= ModeOrig && (err != nil || got != m) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", want, got, err, m)
		}
		if m > ModeOrig && err == nil {
			t.Errorf("ParseMode(%q) accepted", want)
		}
	}
	for _, word := range []string{"", "mixed", "policy", "Tiled", " fov"} {
		if m, err := ParseMode(word); err == nil {
			t.Errorf("ParseMode(%q) = %v, want an error", word, m)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := DefaultPolicy(1.0).Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	bad := []PolicyConfig{
		{SegmentDuration: 0, Link: netsim.WiFi300()},
		{SegmentDuration: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestDecideThreeWay(t *testing.T) {
	p := DefaultPolicy(1.0)
	budget := p.ByteBudget()
	if budget <= 0 {
		t.Fatalf("budget = %d, want positive", budget)
	}

	// Confident prediction + affordable FOV stream → FOV.
	d := p.Decide(SegmentInputs{FOVBytes: 1000, FOVConfidence: 0.9, TiledBytes: 5000, OrigBytes: 20000})
	if d.Mode != ModeFOV {
		t.Errorf("confident fov: got %v (%s)", d.Mode, d.Reason)
	}
	// Low confidence → tiles when they beat orig.
	d = p.Decide(SegmentInputs{FOVBytes: 1000, FOVConfidence: 0.1, TiledBytes: 5000, OrigBytes: 20000})
	if d.Mode != ModeTiled {
		t.Errorf("low confidence: got %v (%s)", d.Mode, d.Reason)
	}
	// Tiles cost more than orig → fall back.
	d = p.Decide(SegmentInputs{FOVConfidence: 0.1, TiledBytes: 30000, OrigBytes: 20000})
	if d.Mode != ModeOrig {
		t.Errorf("expensive tiles: got %v (%s)", d.Mode, d.Reason)
	}
	// No tiles available → orig.
	d = p.Decide(SegmentInputs{FOVConfidence: 0.1, OrigBytes: 20000})
	if d.Mode != ModeOrig {
		t.Errorf("no tiles: got %v (%s)", d.Mode, d.Reason)
	}
	// FOV stream over budget falls through to tiles even when confident.
	d = p.Decide(SegmentInputs{FOVBytes: budget + 1, FOVConfidence: 0.9, TiledBytes: 5000, OrigBytes: 20000})
	if d.Mode != ModeTiled {
		t.Errorf("fov over budget: got %v (%s)", d.Mode, d.Reason)
	}
}

func TestFOVConfidence(t *testing.T) {
	o := geom.Orientation{}
	if c := FOVConfidence(o, o, 0.5); c != 1 {
		t.Errorf("aligned confidence = %v, want 1", c)
	}
	far := geom.Orientation{Yaw: math.Pi / 2}
	if c := FOVConfidence(o, far, 0.5); c != 0 {
		t.Errorf("far confidence = %v, want 0", c)
	}
	mid := geom.Orientation{Yaw: 0.25}
	c := FOVConfidence(o, mid, 0.5)
	if c <= 0 || c >= 1 {
		t.Errorf("mid confidence = %v, want in (0,1)", c)
	}
	if c := FOVConfidence(o, o, 0); c != 0 {
		t.Errorf("zero tolerance confidence = %v, want 0", c)
	}
}

func TestPickTileRungsBudget(t *testing.T) {
	visible := []bool{true, true, true, false}
	tileBytes := [][]int{
		{100, 50, 25},
		{100, 50, 25},
		{100, 50, 25},
		{100, 50, 25},
	}
	dist := []float64{0.1, 0.5, 0.9, 2.0}

	// Unlimited budget: everything at base rung, invisible -1.
	rungs := PickTileRungs(visible, tileBytes, 0, 0, dist)
	want := []int{0, 0, 0, -1}
	for i := range want {
		if rungs[i] != want[i] {
			t.Fatalf("unlimited: rungs = %v, want %v", rungs, want)
		}
	}

	// Budget forces demotion of the farthest visible tile first.
	rungs = PickTileRungs(visible, tileBytes, 0, 250, dist)
	if rungs[3] != -1 {
		t.Fatalf("invisible tile got rung %d", rungs[3])
	}
	total := 0
	for t2 := 0; t2 < 3; t2++ {
		total += tileBytes[t2][rungs[t2]]
	}
	if total > 250 {
		t.Fatalf("total %d exceeds budget 250 (rungs %v)", total, rungs)
	}
	if rungs[2] <= rungs[0] {
		t.Errorf("farthest tile %d should demote before nearest %d: %v", 2, 0, rungs)
	}

	// Impossible budget: everything bottoms out, loop terminates.
	rungs = PickTileRungs(visible, tileBytes, 0, 10, dist)
	for t2 := 0; t2 < 3; t2++ {
		if rungs[t2] != 2 {
			t.Errorf("impossible budget: tile %d at rung %d, want lowest", t2, rungs[t2])
		}
	}

	// Base rung clamped into range.
	rungs = PickTileRungs(visible, tileBytes, 99, 0, dist)
	if rungs[0] != 2 {
		t.Errorf("overlarge base rung = %d, want clamped to 2", rungs[0])
	}
	rungs = PickTileRungs(visible, tileBytes, -5, 0, dist)
	if rungs[0] != 0 {
		t.Errorf("negative base rung = %d, want clamped to 0", rungs[0])
	}
}

func TestPickTileRungsDeterministic(t *testing.T) {
	visible := []bool{true, true, true, true}
	tileBytes := [][]int{{100, 10}, {100, 10}, {100, 10}, {100, 10}}
	dist := []float64{1, 1, 1, 1} // all ties — index order must break them
	a := PickTileRungs(visible, tileBytes, 0, 220, dist)
	b := PickTileRungs(visible, tileBytes, 0, 220, dist)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestDemotePeripheral(t *testing.T) {
	tileBytes := [][]int{
		{100, 50, 25},
		{100, 50, 25},
		{100, 50, 25},
		{100, 50, 25},
		{100, 50},
	}
	rungs := []int{0, 0, 0, -1, 0}
	dist := []float64{0.1, 0.6, 1.3, 0.1, 1.3} // cutoff 0.5: foveal, peripheral, far, (invisible), far
	DemotePeripheral(rungs, tileBytes, dist, 0.5)
	want := []int{0, 1, 2, -1, 1} // tile 4 clamps at its coarsest rung
	for i := range want {
		if rungs[i] != want[i] {
			t.Fatalf("rungs = %v, want %v", rungs, want)
		}
	}

	// cutoff <= 0 is a no-op.
	rungs = []int{0, 0, 0, -1, 0}
	DemotePeripheral(rungs, tileBytes, dist, 0)
	for i, r := range []int{0, 0, 0, -1, 0} {
		if rungs[i] != r {
			t.Fatalf("zero cutoff modified rungs: %v", rungs)
		}
	}
}
