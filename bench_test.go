// Micro-benchmarks for the kernels no other benchmark times: head-trace
// synthesis, capture stitching, SSIM, object detection, the streaming DES,
// and the ABR session. Run with
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

	"evr/internal/abr"
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

func BenchmarkStreamingSessionDES(b *testing.B) {
	s := netsim.DefaultSession(netsim.WiFi300())
	segs := make([]int64, 60)
	for i := range segs {
		segs[i] = 200_000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(segs, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkABRSession(b *testing.B) {
	ladder := abr.DefaultLadder()
	ctrl, err := abr.NewBufferController(ladder.Rungs(), 1.0)
	if err != nil {
		b.Fatal(err)
	}
	segs := make([]int64, 60)
	for i := range segs {
		segs[i] = 1_500_000
	}
	link := netsim.Link{BandwidthBps: 40e6, RTTSeconds: 5e-3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := abr.Simulate(link, ladder, ctrl, segs, 1.0, 2); err != nil {
			b.Fatal(err)
		}
	}
}
