package delivery

import (
	"math"
	"reflect"
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
	nan := math.NaN()
	bad := []PolicyConfig{
		{SegmentDuration: 0, Link: netsim.WiFi300()},
		{SegmentDuration: 1},
		// NaN fails every comparison, so a bare "<= 0" check let these
		// through and ByteBudget converted NaN into an int64.
		{SegmentDuration: 1, Link: netsim.Link{BandwidthBps: nan}},
		{SegmentDuration: 1, Link: netsim.Link{BandwidthBps: 300e6, LossRate: nan}},
		{SegmentDuration: 1, Link: netsim.Link{BandwidthBps: 300e6, LossRate: 1}},
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

func TestBufferRung(t *testing.T) {
	// Three rungs at 1 s segments: rung 0 needs 2 s, rung 1 needs 1 s,
	// rung 2 none.
	for _, c := range []struct {
		buffer, segDur float64
		rungs, want    int
	}{
		{5, 1, 3, 0}, {2, 1, 3, 0}, {1.5, 1, 3, 1}, {1, 1, 3, 1}, {0.99, 1, 3, 2}, {0, 1, 3, 2},
		{1, 0.5, 3, 0}, {0.5, 0.5, 3, 1},
		{0, 1, 1, 0}, {9, 1, 1, 0},
	} {
		if got := BufferRung(c.buffer, c.segDur, c.rungs); got != c.want {
			t.Errorf("BufferRung(%v, %v, %d) = %d, want %d", c.buffer, c.segDur, c.rungs, got, c.want)
		}
	}
}

// abrRatios is a three-rung ladder: full, medium, economy.
var abrRatios = []float64{1.0, 0.6, 0.35}

// abrSession runs a buffer-based rate controller over a Timeline: the
// startup segments go at the coarsest rung (fast start), then each segment
// at the BufferRung of the live buffer. Rung r costs top[i]·ratios[r].
func abrSession(link netsim.Link, ratios []float64, top []int64, segDur float64, startup int) (netsim.Timeline, []int) {
	tl := netsim.Timeline{Link: link, SegmentDuration: segDur, StartupSegments: startup}
	var picked []int
	for _, b := range top {
		rung := len(ratios) - 1
		if tl.Started() {
			rung = BufferRung(tl.Buffer(), segDur, len(ratios))
		}
		picked = append(picked, rung)
		tl.Advance(int64(float64(b) * ratios[rung]))
	}
	return tl, picked
}

func constSegs(n int, bytes int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = bytes
	}
	return out
}

// TestBufferRungSessionPinned pins rung selection over the shared Timeline
// to what the earlier stand-alone controller produced for the same session
// (recorded bit for bit), at startup 1 and 2.
func TestBufferRungSessionPinned(t *testing.T) {
	link := netsim.Link{BandwidthBps: 8e6, RTTSeconds: 0.02}
	top := []int64{4e6, 3e6, 5e6, 1e6, 6e6, 4e6, 2e6, 4e6}
	for _, want := range []struct {
		startup      int
		rungs        []int
		startupDelay float64
		stalls       int
		stallSec     float64
		bytes        int64
	}{
		{1, []int{2, 1, 1, 1, 1, 1, 1, 1}, 1.42, 6, 8.140000000000002, 16400000},
		{2, []int{2, 2, 0, 1, 1, 1, 1, 1}, 2.49, 5, 8.320000000000002, 17650000},
	} {
		tl, rungs := abrSession(link, abrRatios, top, 1.0, want.startup)
		if !reflect.DeepEqual(rungs, want.rungs) || tl.StartupDelay != want.startupDelay ||
			tl.Stalls != want.stalls || tl.StallSec != want.stallSec || tl.Bytes != want.bytes {
			t.Errorf("startup %d: rungs %v, startup delay %v, %d stalls, %v s, %d bytes; want %v, %v, %d, %v s, %d bytes",
				want.startup, rungs, tl.StartupDelay, tl.Stalls, tl.StallSec, tl.Bytes,
				want.rungs, want.startupDelay, want.stalls, want.stallSec, want.bytes)
		}
	}
}

// TestBufferRungSessionAccounting checks that the rung loop's byte total is
// exactly the sum of each segment's bytes at the rung it picked, and that it
// picks one rung per segment.
func TestBufferRungSessionAccounting(t *testing.T) {
	ratios := []float64{1.0, 0.5}
	tl, rungs := abrSession(netsim.Link{BandwidthBps: 80e6}, ratios, constSegs(4, 1_000_000), 1.0, 1)
	var want int64
	for _, rung := range rungs {
		want += int64(1_000_000 * ratios[rung])
	}
	if tl.Bytes != want {
		t.Errorf("bytes = %d, want %d", tl.Bytes, want)
	}
	if len(rungs) != 4 {
		t.Errorf("rungs = %v", rungs)
	}
}

func TestBufferRungFastStartUsesLowestRung(t *testing.T) {
	tl, rungs := abrSession(netsim.Link{BandwidthBps: 80e6}, abrRatios, constSegs(6, 1_000_000), 1.0, 2)
	for i := 0; i < 2; i++ {
		if rungs[i] != 2 {
			t.Errorf("startup segment %d at rung %d, want lowest", i, rungs[i])
		}
	}
	if tl.StartupDelay <= 0 {
		t.Error("no startup delay recorded")
	}
}

func TestBufferRungFastLinkStaysTopRung(t *testing.T) {
	// 1 MB segments, 1 s each, on an 80 Mbps link (10 MB/s): plenty of
	// headroom — after fast start the controller should sit at rung 0.
	tl, rungs := abrSession(netsim.Link{BandwidthBps: 80e6}, abrRatios, constSegs(20, 1_000_000), 1.0, 2)
	if tl.Stalls != 0 {
		t.Errorf("fast link stalled %d times", tl.Stalls)
	}
	top := 0
	for _, rung := range rungs[5:] {
		if rung == 0 {
			top++
		}
	}
	if top < len(rungs[5:])*3/4 {
		t.Errorf("fast link rarely reached top rung: %v", rungs)
	}
}

func TestBufferRungSlowLinkDegradesInsteadOfStalling(t *testing.T) {
	// Segments that take 1.8 s at top rung on this link but hold 1 s of
	// content: fixed-top stalls constantly, the controller drops rungs.
	top := constSegs(30, 1_800_000)
	link := netsim.Link{BandwidthBps: 8e6} // 1 MB/s
	fixed, _ := abrSession(link, []float64{1.0}, top, 1.0, 2)
	adaptive, rungs := abrSession(link, abrRatios, top, 1.0, 2)
	if fixed.Stalls == 0 {
		t.Fatal("fixed-top should stall on the slow link")
	}
	if adaptive.StallSec >= fixed.StallSec {
		t.Errorf("adaptive stall time %v not below fixed %v", adaptive.StallSec, fixed.StallSec)
	}
	sum := 0
	for _, r := range rungs {
		sum += r
	}
	if mean := float64(sum) / float64(len(rungs)); mean <= 0.1 {
		t.Errorf("mean rung %v — it never degraded", mean)
	}
	if adaptive.Bytes >= fixed.Bytes {
		t.Error("adaptive session should also fetch fewer bytes")
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
