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

func TestTruncationPlanValidate(t *testing.T) {
	good := TruncationPlan{Regions: []TruncationRegion{
		{MaxAbsLatDeg: 30, Format: fixed.Format{TotalBits: 30, IntBits: 11}},
		{MaxAbsLatDeg: 90, Format: fixed.Q2810},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []TruncationPlan{
		{},
		{Regions: []TruncationRegion{{MaxAbsLatDeg: 60, Format: fixed.Q2810}}},    // doesn't reach 90
		{Regions: []TruncationRegion{{MaxAbsLatDeg: 0, Format: fixed.Q2810}}},     // empty band
		{Regions: []TruncationRegion{{MaxAbsLatDeg: 90, Format: fixed.Format{}}}}, // invalid format
		{Regions: []TruncationRegion{
			{MaxAbsLatDeg: 60, Format: fixed.Q2810},
			{MaxAbsLatDeg: 40, Format: fixed.Q2810}, // not increasing
		}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %v", i, p)
		}
	}
}

func TestRegionFor(t *testing.T) {
	p := TruncationPlan{Regions: []TruncationRegion{
		{MaxAbsLatDeg: 30, Format: fixed.Q2810},
		{MaxAbsLatDeg: 60, Format: fixed.Q2810},
		{MaxAbsLatDeg: 90, Format: fixed.Q2810},
	}}
	cases := []struct {
		latDeg float64
		want   int
	}{
		{0, 0}, {29.9, 0}, {-29.9, 0}, {30, 0}, {31, 1}, {-45, 1}, {60, 1}, {61, 2}, {90, 2}, {-90, 2},
	}
	for _, c := range cases {
		if got := p.RegionFor(geom.Radians(c.latDeg)); got != c.want {
			t.Errorf("RegionFor(%.1f°) = %d, want %d", c.latDeg, got, c.want)
		}
	}
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

// A plan whose regions all share one format must be byte-identical to the
// plain engine render, and a mixed plan must agree with the plain render
// of each region's format on that region's pixels (the composition
// property that makes the optimizer's table-driven search exact).
func TestRenderPlannedComposition(t *testing.T) {
	cfg := truncCfg()
	full := truncScene()
	o := geom.Orientation{Yaw: geom.Radians(25), Pitch: geom.Radians(35)}

	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Render(full, o)
	pr, err := RenderPlanned(cfg, FlatPlan(fixed.Q2810), full, o)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Frame.Equal(want) {
		t.Fatal("flat plan render differs from plain engine render")
	}
	if len(pr.RegionPixels) != 1 || pr.RegionPixels[0] != cfg.Viewport.Pixels() {
		t.Fatalf("flat plan region accounting wrong: %+v", pr.RegionPixels)
	}

	low := fixed.Format{TotalBits: 24, IntBits: 10}
	plan := TruncationPlan{Regions: []TruncationRegion{
		{MaxAbsLatDeg: 40, Format: fixed.Q2810},
		{MaxAbsLatDeg: 90, Format: low},
	}}
	mixed, err := RenderPlanned(cfg, plan, full, o)
	if err != nil {
		t.Fatal(err)
	}
	// The pitched view must actually straddle the 40° boundary.
	if mixed.RegionPixels[0] == 0 || mixed.RegionPixels[1] == 0 {
		t.Fatalf("view does not exercise both regions: %+v", mixed.RegionPixels)
	}
	lowCfg := cfg
	lowCfg.Format = low
	lowEng, err := New(lowCfg)
	if err != nil {
		t.Fatal(err)
	}
	lowWant := lowEng.Render(full, o)
	vp := cfg.Viewport
	for j := 0; j < vp.Height; j++ {
		for i := 0; i < vp.Width; i++ {
			lat := geom.FromCartesian(vp.Ray(o, i, j)).Phi
			src := want
			if plan.RegionFor(lat) == 1 {
				src = lowWant
			}
			wr, wg, wb := src.At(i, j)
			gr, gg, gb := mixed.Frame.At(i, j)
			if wr != gr || wg != gg || wb != gb {
				t.Fatalf("pixel (%d,%d) not composed from its region's render", i, j)
			}
		}
	}
	// Truncating the polar region must save modeled energy.
	if mixed.EnergyJ >= pr.EnergyJ {
		t.Errorf("mixed plan energy %.3g not below flat %.3g", mixed.EnergyJ, pr.EnergyJ)
	}
	shareSum := 0.0
	for _, s := range mixed.RegionShare {
		shareSum += s
	}
	if math.Abs(shareSum-1) > 1e-12 {
		t.Errorf("region shares sum to %v", shareSum)
	}
}

func TestRenderPlannedRejectsBadInput(t *testing.T) {
	cfg := truncCfg()
	full := truncScene()
	if _, err := RenderPlanned(cfg, TruncationPlan{}, full, geom.Orientation{}); err == nil {
		t.Error("empty plan accepted")
	}
	bad := cfg
	bad.NumPTUs = 0
	if _, err := RenderPlanned(bad, FlatPlan(fixed.Q2810), full, geom.Orientation{}); err == nil {
		t.Error("invalid config accepted")
	}
	for name, pano := range map[string]*frame.Frame{
		"nil":       nil,
		"empty":     {},
		"short Pix": {W: 96, H: 48, Pix: make([]byte, 96*48*3-1)},
	} {
		if _, err := RenderPlanned(cfg, FlatPlan(fixed.Q2810), pano, geom.Orientation{}); err == nil {
			t.Errorf("%s panorama accepted", name)
		}
	}
	if _, err := FlatPlan(fixed.Q2810).PlanFrameEnergyJ(cfg, 96, 48, []float64{0.5, 0.5}); err == nil {
		t.Error("share/region mismatch accepted")
	}
}
