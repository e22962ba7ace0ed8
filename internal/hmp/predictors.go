package hmp

import (
	"evr/internal/geom"
	"evr/internal/headtrace"
)

// Predictor forecasts a head orientation a number of frames ahead from the
// trace prefix up to the current frame.
type Predictor interface {
	// Predict returns the expected orientation horizon frames after frame
	// f, using only samples up to and including f.
	Predict(tr headtrace.Trace, f, horizon int) geom.Orientation
}

// LinearPredictor extrapolates at the current angular velocity — the
// standard constant-velocity baseline real systems use, and a measure of
// how generous the paper's perfect-prediction assumption (§8.5) is: its
// accuracy decays quickly with horizon on saccadic head motion.
type LinearPredictor struct {
	// VelocityWindow is how many trailing frames estimate the velocity.
	VelocityWindow int
}

// Predict implements Predictor.
func (p LinearPredictor) Predict(tr headtrace.Trace, f, horizon int) geom.Orientation {
	if len(tr.Samples) == 0 {
		return geom.Orientation{}
	}
	if f < 0 {
		f = 0
	}
	if f >= len(tr.Samples) {
		f = len(tr.Samples) - 1
	}
	w := p.VelocityWindow
	if w < 1 {
		w = 3
	}
	back := f - w
	if back < 0 {
		back = 0
	}
	cur := tr.Samples[f].O
	if back == f {
		return cur
	}
	prev := tr.Samples[back].O
	span := float64(f - back)
	scale := float64(horizon) / span
	return geom.Orientation{
		Yaw:   cur.Yaw + geom.WrapAngle(cur.Yaw-prev.Yaw)*scale,
		Pitch: cur.Pitch + (cur.Pitch-prev.Pitch)*scale,
		Roll:  cur.Roll,
	}.Normalize()
}

// MeasureAccuracy returns the fraction of frames where the prediction lands
// within tolRad of the true orientation, over a whole trace.
func MeasureAccuracy(p Predictor, tr headtrace.Trace, horizon int, tolRad float64) float64 {
	if len(tr.Samples) == 0 {
		return 1
	}
	hits := 0
	n := 0
	for f := 0; f+horizon < len(tr.Samples); f++ {
		pred := p.Predict(tr, f, horizon)
		truth := tr.Samples[f+horizon].O
		if pred.AngularDistance(truth) <= tolRad {
			hits++
		}
		n++
	}
	if n == 0 {
		return 1
	}
	return float64(hits) / float64(n)
}
