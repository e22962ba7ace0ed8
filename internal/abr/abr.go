// Package abr adds adaptive-bitrate delivery to the EVR streaming path: the
// server encodes each (FOV or original) segment at a ladder of quality
// rungs, and a buffer-based controller on the client picks a rung per
// segment. The paper streams a single quality and assumes the 300 Mbps
// evaluation link (§8.2); ABR is what a production deployment layers on top
// so constrained links degrade quality instead of stalling.
package abr

import (
	"fmt"

	"evr/internal/netsim"
)

// Ladder describes quality rungs by their byte ratio relative to rung 0
// (the best). Ratios must be descending and in (0, 1].
type Ladder struct {
	Ratios []float64
}

// DefaultLadder returns a three-rung ladder: full, medium, economy.
func DefaultLadder() Ladder {
	return Ladder{Ratios: []float64{1.0, 0.6, 0.35}}
}

// Validate reports whether the ladder is usable.
func (l Ladder) Validate() error {
	if len(l.Ratios) == 0 {
		return fmt.Errorf("abr: ladder has no rungs")
	}
	prev := 1.0 + 1e-12
	for i, r := range l.Ratios {
		if r <= 0 || r > 1 {
			return fmt.Errorf("abr: rung %d ratio %v out of (0, 1]", i, r)
		}
		if r > prev {
			return fmt.Errorf("abr: rung ratios not descending at %d", i)
		}
		prev = r
	}
	if l.Ratios[0] != 1.0 {
		return fmt.Errorf("abr: rung 0 must be ratio 1.0")
	}
	return nil
}

// Rungs returns the rung count.
func (l Ladder) Rungs() int { return len(l.Ratios) }

// Controller is a buffer-based rung picker (BOLA-style): the fuller the
// buffer, the higher the quality. Thresholds[r] is the minimum buffered
// seconds required to pick rung r; rung 0 (best) has the highest threshold.
type Controller struct {
	Thresholds []float64
}

// NewBufferController builds thresholds proportional to the segment
// duration: the top rung needs nRungs segments buffered, the bottom none.
func NewBufferController(nRungs int, segmentDuration float64) (*Controller, error) {
	if nRungs < 1 {
		return nil, fmt.Errorf("abr: need at least one rung")
	}
	if segmentDuration <= 0 {
		return nil, fmt.Errorf("abr: segment duration %v must be positive", segmentDuration)
	}
	th := make([]float64, nRungs)
	for r := 0; r < nRungs; r++ {
		th[r] = float64(nRungs-1-r) * segmentDuration
	}
	return &Controller{Thresholds: th}, nil
}

// Pick returns the best rung whose buffer threshold is met.
func (c *Controller) Pick(bufferSec float64) int {
	for r := 0; r < len(c.Thresholds); r++ {
		if bufferSec >= c.Thresholds[r] {
			return r
		}
	}
	return len(c.Thresholds) - 1
}

// Result is the outcome of an ABR session.
type Result struct {
	Rungs        []int // rung chosen per segment
	StartupDelay float64
	Stalls       int
	StallTime    float64
	Bytes        int64
	MeanRung     float64 // 0 = always best quality
}

// Simulate plays a segment sequence over a link with per-segment rung
// selection. topBytes holds each segment's size at rung 0; rung r costs
// topBytes[i]·Ratios[r]. Playback starts after startupSegments are buffered
// (fetched at the lowest rung, the standard fast-start policy).
func Simulate(link netsim.Link, ladder Ladder, ctrl *Controller, topBytes []int64, segmentDuration float64, startupSegments int) (Result, error) {
	if err := link.Validate(); err != nil {
		return Result{}, err
	}
	if err := ladder.Validate(); err != nil {
		return Result{}, err
	}
	if ctrl == nil || len(ctrl.Thresholds) != ladder.Rungs() {
		return Result{}, fmt.Errorf("abr: controller does not match ladder")
	}
	if segmentDuration <= 0 {
		return Result{}, fmt.Errorf("abr: segment duration %v must be positive", segmentDuration)
	}
	if startupSegments < 1 {
		return Result{}, fmt.Errorf("abr: startup segments %d must be ≥ 1", startupSegments)
	}
	var res Result
	n := len(topBytes)
	if n == 0 {
		return res, nil
	}
	tl := netsim.Timeline{Link: link, SegmentDuration: segmentDuration, StartupSegments: startupSegments}
	lowest := ladder.Rungs() - 1
	for i := 0; i < n; i++ {
		rung := lowest // fast start
		if tl.Started() {
			rung = ctrl.Pick(tl.Buffer())
		}
		res.Rungs = append(res.Rungs, rung)
		res.MeanRung += float64(rung)
		tl.Advance(int64(float64(topBytes[i]) * ladder.Ratios[rung]))
	}
	res.StartupDelay, res.Stalls, res.StallTime, res.Bytes = tl.StartupDelay, tl.Stalls, tl.StallSec, tl.Bytes
	res.MeanRung /= float64(n)
	return res, nil
}
