package telemetry

import (
	"testing"
)

// The disabled-telemetry overhead contract: every instrumented call site
// must cost no more than a few nanoseconds when telemetry is off (nil
// recorder). ci.sh runs these as a smoke test on every PR
// (-bench=TelemetryOverhead -benchtime=1x); run them with real benchtime
// to check the ≤ ~5 ns/op budget from ISSUE/DESIGN §9:
//
//	go test ./internal/telemetry -run=NONE -bench=TelemetryOverhead

func BenchmarkTelemetryOverheadNilCounter(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryOverheadNilGauge(b *testing.B) {
	var g *Gauge
	for i := 0; i < b.N; i++ {
		g.Add(1)
	}
}

func BenchmarkTelemetryOverheadNilHistogram(b *testing.B) {
	var h *Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
}

func BenchmarkTelemetryOverheadNilTimer(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		tr.StartTimer(StageFetch).Stop()
	}
}

// BenchmarkTelemetryOverheadNilFrameSpan is one whole disabled frame: span
// open, three stage starts/stops, hit flag, finish — the full per-frame
// call-site pattern from Player.Play.
func BenchmarkTelemetryOverheadNilFrameSpan(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		sp := tr.StartFrame(0, i)
		sp.Start(StageFOVCheck)
		sp.Stop(StageFOVCheck)
		sp.Start(StageRender)
		sp.Stop(StageRender)
		sp.SetHit(true)
		sp.Finish()
	}
}

// Enabled-path costs, for the DESIGN §9 overhead table (not part of the
// disabled-path contract, but kept alongside for comparison).

func BenchmarkTelemetryEnabledCounter(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryEnabledHistogram(b *testing.B) {
	h := NewHistogram(DefaultLatencyBuckets())
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
}

func BenchmarkTelemetryEnabledFrameSpan(b *testing.B) {
	tr := NewTracer(DefaultRingSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartFrame(0, i)
		sp.Start(StageFOVCheck)
		sp.Stop(StageFOVCheck)
		sp.Start(StageRender)
		sp.Stop(StageRender)
		sp.SetHit(true)
		sp.Finish()
	}
}
