package abr

import (
	"reflect"
	"testing"

	"evr/internal/netsim"
)

func mbps(m float64) netsim.Link { return netsim.Link{BandwidthBps: m * 1e6} }

func segs(n int, bytes int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = bytes
	}
	return out
}

func TestLadderValidate(t *testing.T) {
	if err := DefaultLadder().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Ladder{
		{},
		{Ratios: []float64{1.0, 1.2}},
		{Ratios: []float64{1.0, 0}},
		{Ratios: []float64{0.9, 0.5}},
		{Ratios: []float64{1.0, 0.5, 0.7}},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad ladder %d accepted", i)
		}
	}
}

func TestControllerPick(t *testing.T) {
	c, err := NewBufferController(3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Thresholds: rung0 needs 2s, rung1 needs 1s, rung2 needs 0s.
	if got := c.Pick(5); got != 0 {
		t.Errorf("full buffer picked rung %d", got)
	}
	if got := c.Pick(1.5); got != 1 {
		t.Errorf("mid buffer picked rung %d", got)
	}
	if got := c.Pick(0); got != 2 {
		t.Errorf("empty buffer picked rung %d", got)
	}
	if _, err := NewBufferController(0, 1); err == nil {
		t.Error("zero rungs accepted")
	}
	if _, err := NewBufferController(3, 0); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestSimulateValidation(t *testing.T) {
	ctrl, _ := NewBufferController(3, 1)
	if _, err := Simulate(netsim.Link{}, DefaultLadder(), ctrl, segs(3, 100), 1, 1); err == nil {
		t.Error("invalid link accepted")
	}
	if _, err := Simulate(mbps(10), Ladder{}, ctrl, segs(3, 100), 1, 1); err == nil {
		t.Error("invalid ladder accepted")
	}
	if _, err := Simulate(mbps(10), DefaultLadder(), nil, segs(3, 100), 1, 1); err == nil {
		t.Error("nil controller accepted")
	}
	bad, _ := NewBufferController(2, 1)
	if _, err := Simulate(mbps(10), DefaultLadder(), bad, segs(3, 100), 1, 1); err == nil {
		t.Error("mismatched controller accepted")
	}
	if _, err := Simulate(mbps(10), DefaultLadder(), ctrl, segs(3, 100), 0, 1); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Simulate(mbps(10), DefaultLadder(), ctrl, segs(3, 100), 1, 0); err == nil {
		t.Error("zero startup accepted")
	}
	r, err := Simulate(mbps(10), DefaultLadder(), ctrl, nil, 1, 1)
	if err != nil || len(r.Rungs) != 0 {
		t.Error("empty sequence should be a no-op")
	}
}

func TestFastLinkStaysTopRung(t *testing.T) {
	// 1 MB segments, 1 s each, on an 80 Mbps link (10 MB/s): plenty of
	// headroom — after fast start the controller should sit at rung 0.
	ctrl, _ := NewBufferController(3, 1.0)
	r, err := Simulate(mbps(80), DefaultLadder(), ctrl, segs(20, 1_000_000), 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stalls != 0 {
		t.Errorf("fast link stalled %d times", r.Stalls)
	}
	top := 0
	for _, rung := range r.Rungs[5:] {
		if rung == 0 {
			top++
		}
	}
	if top < len(r.Rungs[5:])*3/4 {
		t.Errorf("fast link rarely reached top rung: %v", r.Rungs)
	}
}

func TestSlowLinkDegradesInsteadOfStalling(t *testing.T) {
	// Segments that take 1.8 s at top rung on this link but hold 1 s of
	// content: fixed-top stalls constantly, ABR drops rungs.
	top := segs(30, 1_800_000)
	link := mbps(8) // 1 MB/s
	fixedCtrl := &Controller{Thresholds: []float64{0}}
	fixed, err := Simulate(link, Ladder{Ratios: []float64{1.0}}, fixedCtrl, top, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, _ := NewBufferController(3, 1.0)
	adaptive, err := Simulate(link, DefaultLadder(), ctrl, top, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Stalls == 0 {
		t.Fatal("fixed-top should stall on the slow link")
	}
	if adaptive.StallTime >= fixed.StallTime {
		t.Errorf("ABR stall time %v not below fixed %v", adaptive.StallTime, fixed.StallTime)
	}
	if adaptive.MeanRung <= 0.1 {
		t.Errorf("ABR mean rung %v — it never degraded", adaptive.MeanRung)
	}
	if adaptive.Bytes >= fixed.Bytes {
		t.Error("ABR should also fetch fewer bytes")
	}
}

func TestStartupUsesLowestRung(t *testing.T) {
	ctrl, _ := NewBufferController(3, 1.0)
	r, err := Simulate(mbps(80), DefaultLadder(), ctrl, segs(6, 1_000_000), 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if r.Rungs[i] != 2 {
			t.Errorf("startup segment %d at rung %d, want lowest", i, r.Rungs[i])
		}
	}
	if r.StartupDelay <= 0 {
		t.Error("no startup delay recorded")
	}
}

func TestResultAccounting(t *testing.T) {
	ctrl, _ := NewBufferController(2, 1.0)
	ladder := Ladder{Ratios: []float64{1.0, 0.5}}
	r, err := Simulate(mbps(80), ladder, ctrl, segs(4, 1_000_000), 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, rung := range r.Rungs {
		want += int64(1_000_000 * ladder.Ratios[rung])
	}
	if r.Bytes != want {
		t.Errorf("bytes = %d, want %d", r.Bytes, want)
	}
	if len(r.Rungs) != 4 {
		t.Errorf("rungs = %v", r.Rungs)
	}
}

// TestSimulatePinned pins rung selection over the shared netsim.Timeline to
// what the pre-merge Simulate (its own inline buffer and stall arithmetic)
// produced, recorded at the parent commit bit for bit, at startup 1 and 2.
func TestSimulatePinned(t *testing.T) {
	link := netsim.Link{BandwidthBps: 8e6, RTTSeconds: 0.02}
	top := []int64{4e6, 3e6, 5e6, 1e6, 6e6, 4e6, 2e6, 4e6}
	ctrl, err := NewBufferController(3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for startup, want := range map[int]Result{
		1: {Rungs: []int{2, 1, 1, 1, 1, 1, 1, 1}, StartupDelay: 1.42, Stalls: 6, StallTime: 8.140000000000002, Bytes: 16400000, MeanRung: 1.125},
		2: {Rungs: []int{2, 2, 0, 1, 1, 1, 1, 1}, StartupDelay: 2.49, Stalls: 5, StallTime: 8.320000000000002, Bytes: 17650000, MeanRung: 1.125},
	} {
		got, err := Simulate(link, DefaultLadder(), ctrl, top, 1.0, startup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("startup %d:\n got %+v\nwant %+v", startup, got, want)
		}
	}
}
