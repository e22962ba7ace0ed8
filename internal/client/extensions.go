package client

import (
	"evr/internal/geom"
	"evr/internal/headtrace"
)

// This file implements the paper's proposed extensions (discussed but not
// evaluated in ISCA'19), so they can be measured against the shipped design:
//
//   - §8.2 "We expect that combining head movement prediction with SAS
//     would further improve the bandwidth efficiency, which we wish to
//     develop as future work": PredictiveChoice selects the FOV video using
//     the head pose predicted for the *middle* of the upcoming segment
//     rather than the pose at its boundary, cutting misses caused by
//     in-flight head turns.
//
//   - §6.3 "the PTE logic could be tightly integrated into either the Video
//     Codec or Display Processor … reduces the memory traffic induced by
//     writing the FOV frames from the PTE to the frame buffer": FusedPTE
//     models that integration by dropping the FOV-frame DRAM round trip on
//     PTE-rendered frames.

// Extensions configures the beyond-paper features. The zero value disables
// all of them, leaving the shipped EVR design.
type Extensions struct {
	// PredictiveChoice picks each segment's FOV video with a head-pose
	// prediction half a segment ahead (SAS+HMP hybrid).
	PredictiveChoice bool
	// FusedPTE integrates the PTE into the display processor: PT output
	// streams to scanout without the frame-buffer DRAM round trip.
	FusedPTE bool
}

// predictGaze is the extension's oracle prediction: it reads the trace
// horizon frames ahead, clamped to its ends — the generous §8.5
// assumption, reused here.
func predictGaze(tr headtrace.Trace, frame, horizon int) geom.Orientation {
	if len(tr.Samples) == 0 {
		return geom.Orientation{}
	}
	return tr.Samples[min(max(frame+horizon, 0), len(tr.Samples)-1)].O
}
