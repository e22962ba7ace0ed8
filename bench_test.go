// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment end to end (user
// simulation, fixed-point datapath, or pipeline energy model); run with
//
//	go test -bench=. -benchmem
//
// to reproduce every result, or -bench=Fig12 for a single figure.
// cmd/evrbench prints the same tables with the full 59-user corpus.
package evr_test

import (
	"fmt"
	"testing"

	"evr/internal/abr"
	"evr/internal/capture"
	"evr/internal/codec"
	"evr/internal/experiments"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/netsim"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/quality"
	"evr/internal/scene"
	"evr/internal/vision"
)

// benchUsers trades corpus size for benchmark runtime; shapes are stable
// from a handful of users on.
const benchUsers = 4

func BenchmarkFig03aPowerBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig3a(benchUsers)
		if len(tb.Rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig03bVRTax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig3b(benchUsers)
		if len(tb.Rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig05ObjectCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig5(benchUsers)
		if len(tb.Rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig06TrackingDurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig6(benchUsers)
		if len(tb.Rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig11FixedPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig11()
		if len(tb.Rows) != 7 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig12EnergySavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig12(benchUsers)
		if len(tb.Rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig13FPSBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig13(benchUsers)
		if len(tb.Rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig14StorageTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig14(benchUsers)
		if len(tb.Rows) != 20 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig15LiveOffline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig15(benchUsers)
		if len(tb.Rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig16HMPComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig16(benchUsers)
		if len(tb.Rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkFig17QualityAssessment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig17()
		if len(tb.Rows) != 4 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkPrototypePTE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.PrototypeTable()
		if len(tb.Rows) != 2 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkMissRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.MissRateTable(benchUsers)
		if len(tb.Rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

// --- Ablation studies (DESIGN.md §6). ---

func BenchmarkAblationSegmentLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationSegmentLength(benchUsers); len(tb.Rows) != 3 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkAblationMargin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationMargin(benchUsers); len(tb.Rows) != 4 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkAblationPTUs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationPTUs(); len(tb.Rows) != 4 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkAblationPMEM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationPMEM(); len(tb.Rows) != 4 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkAblationFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationFilter(); len(tb.Rows) != 2 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkAblationExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationExtensions(benchUsers); len(tb.Rows) != 4 {
			b.Fatal("unexpected row count")
		}
	}
}

// --- Microbenchmarks for the performance-critical kernels. ---

func benchFrame() (*frame.Frame, geom.Orientation, projection.Viewport) {
	v, _ := scene.ByName("RS")
	full := v.RenderFrame(0, projection.ERP, 256, 128)
	o := geom.Orientation{Yaw: 0.4, Pitch: -0.1}
	vp := projection.Viewport{Width: 64, Height: 64, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	return full, o, vp
}

func BenchmarkPTReferenceRender(b *testing.B) {
	full, o, vp := benchFrame()
	cfg := pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: vp}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Render(cfg, full, o)
	}
	b.ReportMetric(float64(vp.Pixels()), "pixels/frame")
}

// BenchmarkRenderParallel measures the parallel tile-based render engine on
// a 1080p viewport against the serial reference. Output is byte-identical
// at every worker count; run with
//
//	go test -bench=RenderParallel -benchtime=3x
//
// and compare ns/op across the workers-N sub-benchmarks (the acceptance
// target is ≥ 2× over serial at 4+ workers on a multicore host).
func BenchmarkRenderParallel(b *testing.B) {
	v, _ := scene.ByName("RS")
	full := v.RenderFrame(0, projection.ERP, 512, 256)
	o := geom.Orientation{Yaw: 0.4, Pitch: -0.1}
	vp := projection.Viewport{Width: 1920, Height: 1080, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	cfg := pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: vp}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pt.Render(cfg, full, o)
		}
		b.ReportMetric(float64(vp.Pixels()), "pixels/frame")
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := pt.RenderParallel(cfg, full, o, workers)
				pt.Recycle(out)
			}
			b.ReportMetric(float64(vp.Pixels()), "pixels/frame")
		})
	}
}

func BenchmarkPTEFixedPointRender(b *testing.B) {
	full, o, vp := benchFrame()
	e, err := pte.New(pte.DefaultConfig(projection.ERP, pt.Bilinear, vp))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Render(full, o)
	}
	b.ReportMetric(float64(vp.Pixels()), "pixels/frame")
}

func BenchmarkHeadTraceGeneration(b *testing.B) {
	v, _ := scene.ByName("Paris")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		headtrace.Generate(v, i%headtrace.DatasetUsers)
	}
}

func BenchmarkCodecEncodeFrame(b *testing.B) {
	v, _ := scene.ByName("Paris")
	full := v.RenderFrame(0, projection.ERP, 192, 96)
	enc, err := codec.NewEncoder(codec.Config{GOP: 30, Quality: 6, SearchRange: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := enc.Encode(full); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeFrame(b *testing.B) {
	v, _ := scene.ByName("Paris")
	full := v.RenderFrame(0, projection.ERP, 192, 96)
	enc, _ := codec.NewEncoder(codec.Config{GOP: 1, Quality: 6, SearchRange: 0})
	data, _, err := enc.Encode(full)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.NewDecoder().Decode(data); err != nil {
			b.Fatal(err)
		}
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
		vision.Detect(full, projection.ERP, vision.DefaultDetector())
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

func BenchmarkQuaternionSlerp(b *testing.B) {
	q := geom.QuatFromOrientation(geom.Orientation{Yaw: 0.3})
	r := geom.QuatFromOrientation(geom.Orientation{Yaw: 1.8, Pitch: 0.4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Slerp(r, float64(i%100)/100)
	}
}

// --- Comparison and extension tables. ---

func BenchmarkCmpRelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.RelatedWorkTable(benchUsers); len(tb.Rows) != 3 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkCmpStreamingQoE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.QoETable(benchUsers); len(tb.Rows) != 10 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkCmpPredictionAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.PredictionTable(benchUsers); len(tb.Rows) != 5 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkCmpABRDelivery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.ABRTable(benchUsers); len(tb.Rows) != 6 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkCmpMotionToPhoton(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.LatencyTable(); len(tb.Rows) != 3 {
			b.Fatal("unexpected row count")
		}
	}
}

func BenchmarkAblationCodecFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := experiments.AblationCodecFeatures(); len(tb.Rows) != 4 {
			b.Fatal("unexpected row count")
		}
	}
}
