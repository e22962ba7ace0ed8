package hmp

import (
	"math"
	"testing"
)

func TestMobileAcceleratorMatchesPaper(t *testing.T) {
	a := MobileAccelerator()
	// §8.5: 24×24 systolic array at 1 GHz.
	if a.Rows != 24 || a.Cols != 24 || a.ClockHz != 1e9 {
		t.Errorf("accelerator = %+v, want 24x24 @ 1 GHz", a)
	}
}

func TestInferenceTimingRoofline(t *testing.T) {
	a := MobileAccelerator()
	m := SaliencyCNN()
	secs := a.InferenceSeconds(m)
	// 6e9 MACs on 576 PEs at 1 GHz, 75% utilization → ~14 ms.
	want := 6e9 / (576e9 * 0.75)
	if math.Abs(secs-want) > 1e-9 {
		t.Errorf("inference time = %v, want %v", secs, want)
	}
	// The predictor must keep up with 30 FPS.
	if secs > 1.0/30 {
		t.Errorf("inference %v s slower than one frame time", secs)
	}
}

func TestInferenceEnergyComposition(t *testing.T) {
	a := MobileAccelerator()
	m := SaliencyCNN()
	e := a.InferenceEnergyJ(m)
	compute := a.InferenceSeconds(m) * a.ActiveW
	traffic := float64(m.TrafficB) * a.DRAMJPerB
	if math.Abs(e-(compute+traffic)) > 1e-12 {
		t.Errorf("energy = %v, want %v", e, compute+traffic)
	}
	if e <= 0 {
		t.Fatal("non-positive inference energy")
	}
	// The §8.5 conclusion needs a material per-frame overhead: tens of mJ
	// per frame would make on-device prediction lose to SAS.
	if e < 5e-3 || e > 60e-3 {
		t.Errorf("per-inference energy %v J outside the plausible band", e)
	}
}

func TestPerFrameOverhead(t *testing.T) {
	a := MobileAccelerator()
	m := SaliencyCNN()
	if got := a.PerFrameOverheadJ(m, 30); got != a.InferenceEnergyJ(m) {
		t.Error("per-frame overhead should equal one inference")
	}
	if got := a.PerFrameOverheadJ(m, 0); got != 0 {
		t.Error("zero FPS should cost nothing")
	}
}
