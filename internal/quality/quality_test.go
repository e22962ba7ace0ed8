package quality

import (
	"math"
	"math/rand"
	"testing"

	"evr/internal/frame"
	"evr/internal/projection"
	"evr/internal/scene"
)

func TestSSIMIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	f := frame.New(32, 32)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	if got := SSIM(f, f.Clone()); math.Abs(got-1) > 1e-9 {
		t.Errorf("SSIM of identical frames = %v, want 1", got)
	}
}

func TestSSIMDegradesWithNoise(t *testing.T) {
	v, _ := scene.ByName("RS")
	ref := v.RenderFrame(0, projection.ERP, 64, 32)
	light := ref.Clone()
	heavy := ref.Clone()
	rng := rand.New(rand.NewSource(71))
	for i := range light.Pix {
		light.Pix[i] = clampAdd(light.Pix[i], rng.Intn(11)-5)
		heavy.Pix[i] = clampAdd(heavy.Pix[i], rng.Intn(101)-50)
	}
	sLight := SSIM(ref, light)
	sHeavy := SSIM(ref, heavy)
	if !(sHeavy < sLight && sLight < 1) {
		t.Errorf("SSIM ordering broken: heavy=%v light=%v", sHeavy, sLight)
	}
	if sHeavy < 0 {
		t.Errorf("SSIM %v below plausible floor", sHeavy)
	}
}

func clampAdd(b byte, d int) byte {
	v := int(b) + d
	if v < 0 {
		v = 0
	}
	if v > 255 {
		v = 255
	}
	return byte(v)
}

// Library-facing metric entry points must reject bad inputs with a status
// (error or the documented NaN sentinel), never a panic: the assessment
// pipeline runs on server ingest paths where a malformed upload must not
// take the process down.
func TestMetricStatusOnBadInput(t *testing.T) {
	a8 := frame.New(8, 8)
	a16 := frame.New(16, 16)
	cases := []struct {
		name string
		err  func() error
	}{
		{"SSIMChecked mismatch", func() error { _, err := SSIMChecked(a8, a16); return err }},
		{"SSIMChecked nil", func() error { _, err := SSIMChecked(nil, a8); return err }},
		{"AssessChecked mismatch", func() error {
			_, err := NewAssessor(projection.ERP, 16, 16).AssessChecked(a16, a8)
			return err
		}},
		{"AssessChecked nil", func() error {
			_, err := NewAssessor(projection.ERP, 16, 16).AssessChecked(nil, a8)
			return err
		}},
		{"AssessChecked no views", func() error {
			_, err := Assessor{}.AssessChecked(a8, a8.Clone())
			return err
		}},
		{"WeightedMSE mismatch", func() error {
			_, err := ViewportWeights(projection.Viewport{Width: 8, Height: 8, FOVX: 1, FOVY: 1}).WeightedMSE(a8, a16)
			return err
		}},
	}
	for _, c := range cases {
		if err := c.err(); err == nil {
			t.Errorf("%s: accepted, want error", c.name)
		}
	}
	if got := SSIM(a8, a16); !math.IsNaN(got) {
		t.Errorf("SSIM on mismatched dims = %v, want NaN", got)
	}
	if rep := (Assessor{}).Assess(a8, a8.Clone()); len(rep.Views) != 0 {
		t.Errorf("Assess on invalid assessor returned views: %+v", rep)
	}
}

func TestSSIMTinyFrames(t *testing.T) {
	if got := SSIM(frame.New(4, 4), frame.New(4, 4)); got != 1 {
		t.Errorf("sub-window frames should score 1, got %v", got)
	}
}

func TestAssessorScoresDistortion(t *testing.T) {
	v, _ := scene.ByName("RS")
	ref := v.RenderFrame(0, projection.ERP, 128, 64)
	a := NewAssessor(projection.ERP, 32, 32)
	perfect := a.Assess(ref, ref.Clone())
	if perfect.MeanSSIM < 0.999 {
		t.Errorf("identical content SSIM = %v", perfect.MeanSSIM)
	}
	if len(perfect.Views) != len(DefaultViews()) {
		t.Errorf("scored %d views", len(perfect.Views))
	}
	// Quantize the distorted copy harshly.
	bad := ref.Clone()
	for i := range bad.Pix {
		bad.Pix[i] &= 0xC0
	}
	worse := a.Assess(ref, bad)
	if worse.MeanSSIM >= perfect.MeanSSIM || worse.MeanPSNR >= perfect.MeanPSNR {
		t.Errorf("distortion did not lower scores: %+v vs %+v", worse.MeanPSNR, perfect.MeanPSNR)
	}
}

func TestFig17ReductionShape(t *testing.T) {
	// Fig. 17: PTE saves up to ~40% of the assessment pipeline energy, and
	// the reduction shrinks as output resolution grows.
	resolutions := [][2]int{{960, 1080}, {1080, 1200}, {1280, 1440}, {1440, 1600}}
	for _, m := range projection.Methods {
		var prev float64 = math.Inf(1)
		for i, res := range resolutions {
			p := DefaultPipelineEnergy(m, res[0], res[1])
			red := p.ReductionPct(3840, 2160)
			if red <= 0 || red > 60 {
				t.Errorf("%v %dx%d: reduction %.1f%% out of (0, 60]", m, res[0], res[1], red)
			}
			if i == 0 && (red < 30 || red > 55) {
				t.Errorf("%v lowest-res reduction %.1f%%, want ≈40%%", m, red)
			}
			if red >= prev {
				t.Errorf("%v: reduction not decreasing with resolution (%.1f then %.1f)", m, prev, red)
			}
			prev = red
		}
	}
}

func TestPipelineEnergiesPositive(t *testing.T) {
	p := DefaultPipelineEnergy(projection.ERP, 960, 1080)
	g, e := p.FrameEnergies(3840, 2160)
	if g <= 0 || e <= 0 || e >= g {
		t.Errorf("energies implausible: gpu=%v pte=%v", g, e)
	}
}

func TestProjectionCostOrdering(t *testing.T) {
	// CMP's mapping is cheapest on the GPU, EAC's the dearest.
	cmp := DefaultPipelineEnergy(projection.CMP, 960, 1080)
	erp := DefaultPipelineEnergy(projection.ERP, 960, 1080)
	eac := DefaultPipelineEnergy(projection.EAC, 960, 1080)
	if !(cmp.GPUJPerPx < erp.GPUJPerPx && erp.GPUJPerPx < eac.GPUJPerPx) {
		t.Error("per-pixel GPU cost ordering CMP < ERP < EAC broken")
	}
}
