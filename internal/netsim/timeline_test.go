package netsim

import "testing"

// TestTimelinePinned pins the buffer/stall arithmetic to the values the
// pre-merge abr.Simulate produced for the same fixed-rung session (recorded at
// the parent commit, bit for bit), at both startup depths in use.
func TestTimelinePinned(t *testing.T) {
	link := Link{BandwidthBps: 8e6, RTTSeconds: 0.02}
	segs := []int64{4e6, 3e6, 5e6, 1e6, 6e6, 4e6, 2e6, 4e6}
	for _, want := range []struct {
		startup      int
		startupDelay float64
		stalls       int
		stallSec     float64
	}{
		{0, 4.02, 7, 18.139999999999997}, // 0 means 1
		{1, 4.02, 7, 18.139999999999997},
		{2, 7.039999999999999, 6, 15.119999999999997},
	} {
		tl := Timeline{Link: link, SegmentDuration: 1.0, StartupSegments: want.startup}
		for _, b := range segs {
			tl.Advance(b)
		}
		if tl.StartupDelay != want.startupDelay || tl.Stalls != want.stalls || tl.StallSec != want.stallSec || tl.Bytes != 29000000 {
			t.Errorf("startup %d: startup delay %v, %d stalls, %v s stalled, %d bytes; want %v, %d, %v, 29000000",
				want.startup, tl.StartupDelay, tl.Stalls, tl.StallSec, tl.Bytes, want.startupDelay, want.stalls, want.stallSec)
		}
	}
}

func TestTimelineBuffer(t *testing.T) {
	// A fat link accumulates buffer: each segment transfers in well under
	// its duration, so the buffer grows toward one segment per advance.
	tl := Timeline{Link: Link{BandwidthBps: 800e6}, SegmentDuration: 1.0}
	if tl.Buffer() != 0 {
		t.Fatalf("initial buffer = %v", tl.Buffer())
	}
	for i := 0; i < 3; i++ {
		tl.Advance(1e6)
	}
	if b := tl.Buffer(); b <= 1.5 {
		t.Errorf("buffer after 3 fast segments = %v, want > 1.5", b)
	}
	if tl.Stalls != 0 {
		t.Errorf("fast link stalled %d times", tl.Stalls)
	}

	// A starved link stalls: every transfer takes longer than playback.
	slow := Timeline{Link: Link{BandwidthBps: 1e6}, SegmentDuration: 1.0}
	for i := 0; i < 3; i++ {
		slow.Advance(1e6) // 8 seconds per 1-second segment
	}
	if slow.Stalls == 0 {
		t.Error("starved link never stalled")
	}
	if slow.StallSec <= 0 {
		t.Error("starved link has zero stall time")
	}
}
