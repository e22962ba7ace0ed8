package latency

import (
	"math"
	"testing"

	"evr/internal/energy"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
)

func TestMotionToPhotonOrdering(t *testing.T) {
	// SAS hit < PTE < GPU: every step the paper removes shortens the
	// photon path too.
	gpu := GPUPipeline(60).MotionToPhotonSeconds()
	pte := PTEPipeline(60).MotionToPhotonSeconds()
	hit := SASHitPipeline(60).MotionToPhotonSeconds()
	if !(hit < pte && pte < gpu) {
		t.Errorf("latency ordering broken: hit=%v pte=%v gpu=%v", hit, pte, gpu)
	}
	// Sanity: all within the plausible HMD band (10–80 ms).
	for _, v := range []float64{gpu, pte, hit} {
		if v < 10e-3 || v > 80e-3 {
			t.Errorf("latency %v s implausible", v)
		}
	}
}

func TestMotionToPhotonArithmetic(t *testing.T) {
	p := Pipeline{Stages: []Stage{{"a", 0.010}, {"b", 0.005}}, VSyncHz: 100}
	want := 0.015 + 0.005 // stages + half a 10 ms vsync period
	if got := p.MotionToPhotonSeconds(); math.Abs(got-want) > 1e-12 {
		t.Errorf("M2P = %v, want %v", got, want)
	}
}

func TestThroughputBoundedBySlowestStage(t *testing.T) {
	p := Pipeline{Stages: []Stage{{"fast", 0.001}, {"slow", 0.020}}, VSyncHz: 90}
	if got := p.ThroughputFPS(); math.Abs(got-50) > 1e-9 {
		t.Errorf("throughput = %v, want 50", got)
	}
	if p.Bottleneck() != "slow" {
		t.Errorf("bottleneck = %q", p.Bottleneck())
	}
	// VSync caps throughput.
	quick := Pipeline{Stages: []Stage{{"s", 0.001}}, VSyncHz: 90}
	if got := quick.ThroughputFPS(); got != 90 {
		t.Errorf("vsync cap broken: %v", got)
	}
	zero := Pipeline{Stages: []Stage{{"s", 0}}, VSyncHz: 72}
	if zero.ThroughputFPS() != 72 {
		t.Error("zero-latency pipeline should hit vsync")
	}
}

func TestPipelinesSustainRealTime(t *testing.T) {
	// Every modeled path must clear 30 FPS, matching the §8 baselines.
	for _, p := range []Pipeline{GPUPipeline(60), PTEPipeline(60), SASHitPipeline(60)} {
		if fps := p.ThroughputFPS(); fps < 30 {
			t.Errorf("%s-bottlenecked pipeline only %v FPS", p.Bottleneck(), fps)
		}
	}
}

// TestStageConstantsMatchHardwareModels cross-checks the latency constants
// against the pte timing model and the GPU price in package energy so the
// two views of the same hardware cannot drift apart.
func TestStageConstantsMatchHardwareModels(t *testing.T) {
	vp := projection.Viewport{Width: 2560, Height: 1440, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	pteCfg := pte.DefaultConfig(projection.ERP, pt.Bilinear, vp)
	secs, _, _ := pteCfg.FrameWork(3840, 2160)
	if math.Abs(secs-PTEPTSec)/PTEPTSec > 0.05 {
		t.Errorf("PTEPTSec = %v but the cycle model says %v", PTEPTSec, secs)
	}
	gpuSecs := float64(vp.Pixels()) / energy.GPUThroughputPixPS
	if math.Abs(gpuSecs-GPUPTSec)/GPUPTSec > 0.05 {
		t.Errorf("GPUPTSec = %v but the throughput model says %v", GPUPTSec, gpuSecs)
	}
}
