package pte

import (
	"math"
	"testing"

	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

func truncCfg() Config {
	vp := projection.Viewport{Width: 32, Height: 32, FOVX: geom.Radians(100), FOVY: geom.Radians(100)}
	return DefaultConfig(projection.ERP, pt.Bilinear, vp)
}

func truncScene() *frame.Frame {
	f := frame.New(96, 48)
	for y := 0; y < 48; y++ {
		for x := 0; x < 96; x++ {
			f.Set(x, y, byte(x*2+y), byte(255-x), byte(y*5))
		}
	}
	return f
}

// The flat [28, 10] plan must reduce exactly to the existing frame energy
// model — SPORT changes nothing unless a plan actually varies the format.
func TestFlatPlanEnergyIdentity(t *testing.T) {
	cfg := truncCfg()
	want := cfg.FrameEnergyJ(96, 48)
	got, err := FlatPlan(fixed.Q2810).PlanFrameEnergyJ(cfg, 96, 48, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > want*1e-12 {
		t.Errorf("flat plan energy %.12g != FrameEnergyJ %.12g", got, want)
	}
	// The ASIC config scales base and datapath alike.
	acfg := ASICConfig(projection.ERP, pt.Bilinear, cfg.Viewport)
	want = acfg.FrameEnergyJ(96, 48)
	got, err = FlatPlan(fixed.Q2810).PlanFrameEnergyJ(acfg, 96, 48, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > want*1e-12 {
		t.Errorf("ASIC flat plan energy %.12g != FrameEnergyJ %.12g", got, want)
	}
	if _, err := FlatPlan(fixed.Q2810).PlanFrameEnergyJ(cfg, 96, 48, []float64{0.5, 0.5}); err == nil {
		t.Error("share/region mismatch accepted")
	}
}

func TestFormatEnergyScaleShape(t *testing.T) {
	if s := FormatEnergyScale(fixed.Q2810); math.Abs(s-1) > 1e-12 {
		t.Errorf("Q2810 scale = %v, want 1", s)
	}
	// Narrower formats must be cheaper, wider dearer, monotonically.
	formats := []fixed.Format{
		{TotalBits: 20, IntBits: 10},
		{TotalBits: 24, IntBits: 10},
		{TotalBits: 28, IntBits: 10},
		{TotalBits: 32, IntBits: 10},
		{TotalBits: 40, IntBits: 12},
	}
	prev := 0.0
	for _, f := range formats {
		s := FormatEnergyScale(f)
		if s <= prev {
			t.Errorf("energy scale not increasing: %v scored %v after %v", f, s, prev)
		}
		prev = s
	}
}
