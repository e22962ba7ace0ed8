// Package latency models the client's frame pipeline timing: the
// motion-to-photon path from an IMU sample through decode, projective
// transformation, and scanout to light on the panel. The paper optimizes
// energy at a fixed 30 FPS (§6.3); this model makes the latency side of
// the same pipeline explicit — where HAR's fully-pipelined PTE and SAS's
// PT-free hit path also shorten the photon path.
package latency

import (
	"sort"
)

// Stage is one pipeline step with its per-frame latency.
type Stage struct {
	Name    string
	Seconds float64
}

// Pipeline is an ordered set of stages, executed per frame. Stages are
// frame-pipelined: different frames occupy different stages concurrently.
type Pipeline struct {
	Stages []Stage
	// VSyncHz is the display refresh; a finished frame waits for the next
	// scanout boundary (half a period on average).
	VSyncHz float64
}

// MotionToPhotonSeconds returns the end-to-end latency of one frame: the
// sum of stage latencies plus the mean vsync wait.
func (p Pipeline) MotionToPhotonSeconds() float64 {
	var sum float64
	for _, s := range p.Stages {
		sum += s.Seconds
	}
	return sum + 0.5/p.VSyncHz
}

// ThroughputFPS returns the sustained frame rate: pipelined stages bound
// throughput by the slowest stage.
func (p Pipeline) ThroughputFPS() float64 {
	var slowest float64
	for _, s := range p.Stages {
		if s.Seconds > slowest {
			slowest = s.Seconds
		}
	}
	if slowest == 0 {
		return p.VSyncHz
	}
	fps := 1 / slowest
	if fps > p.VSyncHz {
		fps = p.VSyncHz
	}
	return fps
}

// Bottleneck returns the name of the slowest stage.
func (p Pipeline) Bottleneck() string {
	stages := append([]Stage(nil), p.Stages...)
	sort.SliceStable(stages, func(i, j int) bool { return stages[i].Seconds > stages[j].Seconds })
	return stages[0].Name
}

// Device-stage latency constants for the TX2-class client at 4K input /
// 2560×1440 output, consistent with the energy model's throughput figures.
// GPUPTSec and PTEPTSec are cross-checked against the GPU price in package
// energy and the pte model in the tests; the decode figures assume a hardware codec at 2× real time.
const (
	// IMUSampleSec is sensor sampling + filtering.
	IMUSampleSec = 1e-3
	// DecodeSec is hardware decode of one 4K frame at 2× real time.
	DecodeSec = 16e-3
	// DecodeFOVSec decodes a margin-padded FOV frame (fewer pixels).
	DecodeFOVSec = 13e-3
	// GPUPTSec is the GPU texture-mapping pass (3.69 Mpx at 150 Mpx/s).
	GPUPTSec = 24.6e-3
	// PTEPTSec is the accelerator pass (DMA-bound, §7.2: ~52 FPS).
	PTEPTSec = 19.2e-3
	// ScanoutSec is the display processor's pixel pipeline.
	ScanoutSec = 2.8e-3
)

// GPUPipeline returns the baseline path: decode → GPU PT → scanout.
func GPUPipeline(vsyncHz float64) Pipeline {
	return Pipeline{
		Stages: []Stage{
			{"imu", IMUSampleSec},
			{"decode", DecodeSec},
			{"gpu-pt", GPUPTSec},
			{"scanout", ScanoutSec},
		},
		VSyncHz: vsyncHz,
	}
}

// PTEPipeline returns the HAR path: decode → PTE → scanout.
func PTEPipeline(vsyncHz float64) Pipeline {
	return Pipeline{
		Stages: []Stage{
			{"imu", IMUSampleSec},
			{"decode", DecodeSec},
			{"pte-pt", PTEPTSec},
			{"scanout", ScanoutSec},
		},
		VSyncHz: vsyncHz,
	}
}

// SASHitPipeline returns the FOV-hit path: decode the FOV frame, no PT.
func SASHitPipeline(vsyncHz float64) Pipeline {
	return Pipeline{
		Stages: []Stage{
			{"imu", IMUSampleSec},
			{"decode", DecodeFOVSec},
			{"scanout", ScanoutSec},
		},
		VSyncHz: vsyncHz,
	}
}
