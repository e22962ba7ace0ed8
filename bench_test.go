// Micro-benchmarks for the kernels no other benchmark times: head-trace
// synthesis, capture stitching, SSIM, object detection and the capped
// streaming timeline. Run with
//
//	go test -run='^$' -bench=. -benchmem
//
// The paper's tables are pinned byte for byte by internal/experiments'
// golden tests and printed by cmd/evrbench. The render kernels are timed next to their code
// (pt, pte, ptlut, delivery, display), and bench/ times and gates them and
// the codec end to end.
package evr_test

import (
	"testing"

	"evr/internal/capture"
	"evr/internal/headtrace"
	"evr/internal/netsim"
	"evr/internal/projection"
	"evr/internal/quality"
	"evr/internal/scene"
	"evr/internal/vision"
)

func BenchmarkHeadTraceGeneration(b *testing.B) {
	v, _ := scene.ByName("Paris")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		headtrace.Generate(v, i%headtrace.DatasetUsers)
	}
}

func BenchmarkCaptureStitch(b *testing.B) {
	v, _ := scene.ByName("RS")
	rig := capture.SixCameraRig(64)
	images := rig.Capture(v, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.Stitch(images, projection.ERP, 128, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQualitySSIM(b *testing.B) {
	v, _ := scene.ByName("RS")
	a := v.RenderFrame(0, projection.ERP, 128, 64)
	c := v.RenderFrame(0.1, projection.ERP, 128, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quality.SSIM(a, c)
	}
}

func BenchmarkVisionDetect(b *testing.B) {
	v, _ := scene.ByName("Paris")
	full := v.RenderFrame(0, projection.ERP, 256, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vision.Detect(full, projection.ERP)
	}
}

// BenchmarkStreamingTimeline plays a 60-segment session through the capped
// buffer/stall timeline at the Cmp 2 policy (2-segment startup, 4-segment
// cap). Ten-segment runs alternate between 0.04 s and 1.6 s transfers of
// 1 s segments: the cap holds the downloader back in the fast runs, so the
// slow runs stall (uncapped, the same session never stalls).
func BenchmarkStreamingTimeline(b *testing.B) {
	segs := make([]int64, 60)
	for i := range segs {
		segs[i] = 200_000
		if i/10%2 == 1 {
			segs[i] = 8_000_000
		}
	}
	link := netsim.Link{BandwidthBps: 40e6, RTTSeconds: 5e-3}
	for i := 0; i < b.N; i++ {
		tl := netsim.Timeline{Link: link, SegmentDuration: 1.0, StartupSegments: 2, BufferCapSegments: 4}
		for _, s := range segs {
			tl.Advance(s)
		}
		if tl.Stalls == 0 {
			b.Fatal("the capped session never stalled")
		}
	}
}
