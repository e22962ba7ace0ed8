package netsim

import (
	"math"
	"testing"
)

// testLink transfers 1 MB/s with no RTT for easy arithmetic.
func testLink() Link { return Link{BandwidthBps: 8e6} }

func constSegs(n int, bytes int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = bytes
	}
	return out
}

func play(tl Timeline, segs []int64) Timeline {
	for _, b := range segs {
		tl.Advance(b)
	}
	return tl
}

// TestTimelinePinned pins the buffer/stall arithmetic to the values the
// earlier rate-controller loop produced for the same fixed-rung session
// (recorded bit for bit), at both startup depths in use. The capped rows pin
// the buffer cap to the batch session model it replaced: stall counts
// exactly, times within 1e-9 of what that model gave for the same input.
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

	// The cap binds here: uncapped, the same input never stalls.
	capped := []int64{3e5, 2e5, 1e5, 4e5, 25e5, 1e5, 2e5, 3e5, 1e5, 18e5, 2e5, 1e5}
	for _, want := range []struct {
		startup, cap         int
		startupDelay         float64
		stalls               int
		stallSec, bufferLead float64
	}{
		{2, 3, 0.54, 1, 0.52, 1.1466666666666663},
		{1, 2, 0.32, 2, 2.34, 0.59333333333333338},
		{2, 0, 0.54, 0, 0, 2.5683333333333329},
	} {
		tl := play(Timeline{Link: link, SegmentDuration: 1.0, StartupSegments: want.startup, BufferCapSegments: want.cap}, capped)
		if tl.Stalls != want.stalls || math.Abs(tl.StartupDelay-want.startupDelay) > 1e-9 ||
			math.Abs(tl.StallSec-want.stallSec) > 1e-9 || math.Abs(tl.MeanBufferLead()-want.bufferLead) > 1e-9 {
			t.Errorf("startup %d cap %d: startup delay %v, %d stalls, %v s stalled, lead %v; want %v, %d, %v, %v",
				want.startup, want.cap, tl.StartupDelay, tl.Stalls, tl.StallSec, tl.MeanBufferLead(),
				want.startupDelay, want.stalls, want.stallSec, want.bufferLead)
		}
	}
}

func TestTimelineEmpty(t *testing.T) {
	var tl Timeline
	if tl.Started() || tl.Buffer() != 0 || tl.MeanBufferLead() != 0 || tl.Stalls != 0 {
		t.Errorf("empty timeline: %+v", tl)
	}
}

func TestTimelineCappedSmoothPlayback(t *testing.T) {
	// Segments of 0.5 MB = 0.5 s download each, 1 s of content: downloads
	// run at twice real time, so after startup there are no stalls.
	tl := play(Timeline{Link: testLink(), SegmentDuration: 1.0, StartupSegments: 2, BufferCapSegments: 4}, constSegs(10, 500_000))
	if tl.Stalls != 0 {
		t.Errorf("unexpected stalls: %d", tl.Stalls)
	}
	if math.Abs(tl.StartupDelay-1.0) > 1e-9 { // two segments × 0.5 s
		t.Errorf("startup = %v, want 1.0", tl.StartupDelay)
	}
	if math.Abs(tl.MeanBufferLead()-2.0) > 1e-9 {
		t.Errorf("buffer lead = %v, want 2.0", tl.MeanBufferLead())
	}
}

func TestTimelineStarvedLinkStalls(t *testing.T) {
	// 2 MB segments take 2 s to download but hold 1 s of content: every
	// post-startup segment stalls 1 s.
	tl := play(Timeline{Link: testLink(), SegmentDuration: 1.0, StartupSegments: 1, BufferCapSegments: 2}, constSegs(4, 2_000_000))
	if tl.Stalls != 3 {
		t.Fatalf("stalls = %d, want 3", tl.Stalls)
	}
	if math.Abs(tl.StallSec-3.0) > 1e-9 {
		t.Errorf("total stall = %v, want 3.0", tl.StallSec)
	}
	if tl.MeanBufferLead() != 0 {
		t.Errorf("starved link buffered %v s ahead", tl.MeanBufferLead())
	}
}

func TestTimelineOneBigSegmentStall(t *testing.T) {
	// One oversized segment mid-stream (a FOV miss re-fetching an
	// original) causes exactly one bounded stall.
	segs := []int64{100_000, 100_000, 100_000, 4_000_000, 100_000, 100_000}
	tl := play(Timeline{Link: testLink(), SegmentDuration: 1.0, StartupSegments: 2, BufferCapSegments: 4}, segs)
	if tl.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", tl.Stalls)
	}
	if math.Abs(tl.StallSec-1.1) > 1e-9 {
		t.Errorf("stall = %v, want 1.1", tl.StallSec)
	}
}

func TestTimelineBufferCapLimitsLead(t *testing.T) {
	// With a tight cap the downloader cannot run far ahead even on a fast
	// link; mean buffer lead is bounded by the cap's worth of content.
	fast := Link{BandwidthBps: 8e9}
	segs := constSegs(20, 1_000_000)
	tight := play(Timeline{Link: fast, SegmentDuration: 1.0, StartupSegments: 1, BufferCapSegments: 2}, segs)
	loose := play(Timeline{Link: fast, SegmentDuration: 1.0, StartupSegments: 1, BufferCapSegments: 16}, segs)
	if math.Abs(tight.MeanBufferLead()-0.94905) > 1e-9 || math.Abs(loose.MeanBufferLead()-8.9938) > 1e-9 {
		t.Errorf("lead at cap 2 = %v, at cap 16 = %v; want 0.94905, 8.9938", tight.MeanBufferLead(), loose.MeanBufferLead())
	}
}

func TestTimelineLossyLinkStallsMore(t *testing.T) {
	segs := constSegs(12, 900_000) // 0.9 s at 1 MB/s: barely real-time
	lossyLink := testLink()
	lossyLink.LossRate = 0.3
	clean := play(Timeline{Link: testLink(), SegmentDuration: 1.0, StartupSegments: 1, BufferCapSegments: 3}, segs)
	lossy := play(Timeline{Link: lossyLink, SegmentDuration: 1.0, StartupSegments: 1, BufferCapSegments: 3}, segs)
	if lossy.StallSec <= clean.StallSec {
		t.Errorf("lossy link stall %v not above clean %v", lossy.StallSec, clean.StallSec)
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
