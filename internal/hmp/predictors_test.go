package hmp

import (
	"testing"

	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/scene"
)

func TestLinearPredictorOnConstantVelocity(t *testing.T) {
	// A uniformly-rotating head is predicted exactly by extrapolation.
	tr := headtrace.Trace{FPS: 30}
	for i := 0; i < 60; i++ {
		tr.Samples = append(tr.Samples, headtrace.Sample{
			T: float64(i) / 30,
			O: geom.Orientation{Yaw: 0.01 * float64(i)},
		})
	}
	p := LinearPredictor{VelocityWindow: 3}
	for _, horizon := range []int{1, 5, 15} {
		pred := p.Predict(tr, 30, horizon)
		want := tr.Samples[30+horizon].O
		if pred.AngularDistance(want) > 1e-9 {
			t.Errorf("horizon %d: predicted %v rad off", horizon, pred.AngularDistance(want))
		}
	}
	// Only the very first frames (no velocity history yet) may miss.
	if acc := MeasureAccuracy(p, tr, 10, 0.01); acc < 0.97 {
		t.Errorf("constant-velocity accuracy = %v, want ≈1", acc)
	}
}

func TestLinearPredictorEdgeCases(t *testing.T) {
	p := LinearPredictor{}
	if p.Predict(headtrace.Trace{}, 0, 5) != (geom.Orientation{}) {
		t.Error("empty trace should predict identity")
	}
	tr := headtrace.Trace{Samples: []headtrace.Sample{{O: geom.Orientation{Yaw: 0.5}}}}
	if got := p.Predict(tr, 0, 5); got.Yaw != 0.5 {
		t.Error("single-sample trace should hold position")
	}
	if got := p.Predict(tr, -3, 5); got.Yaw != 0.5 {
		t.Error("negative frame should clamp")
	}
	if got := p.Predict(tr, 99, 5); got.Yaw != 0.5 {
		t.Error("overflow frame should clamp")
	}
}

func TestAccuracyDecaysWithHorizon(t *testing.T) {
	// On real (saccadic) traces, linear prediction degrades with horizon
	// while the paper's assumed predictor stays perfect — the gap the §8.5
	// assumption skips.
	v, _ := scene.ByName("RS")
	tr := headtrace.Generate(v, 2)
	lin := LinearPredictor{VelocityWindow: 3}
	tol := geom.Radians(15)
	a5 := MeasureAccuracy(lin, tr, 5, tol)
	a30 := MeasureAccuracy(lin, tr, 30, tol)
	a90 := MeasureAccuracy(lin, tr, 90, tol)
	if !(a90 < a30 && a30 < a5) {
		t.Errorf("accuracy not decaying: %v %v %v", a5, a30, a90)
	}
	// A 1-second horizon on exploratory content is materially imperfect.
	if a30 > 0.995 {
		t.Errorf("linear accuracy %v at 1 s suspiciously perfect", a30)
	}
}

func TestMeasureAccuracyDegenerate(t *testing.T) {
	if MeasureAccuracy(LinearPredictor{}, headtrace.Trace{}, 5, 0.1) != 1 {
		t.Error("empty trace accuracy should be 1")
	}
	one := headtrace.Trace{Samples: []headtrace.Sample{{}}}
	if MeasureAccuracy(LinearPredictor{}, one, 5, 0.1) != 1 {
		t.Error("too-short trace accuracy should be 1")
	}
}
