package client

import (
	"testing"
	"time"

	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/telemetry"
)

// TestTelemetryByteIdentical extends TestCachePrefetchByteIdentical's
// contract to the tracing layer: playback with a tracer attached must
// produce byte-identical displayed frames and identical Hits/Misses/
// BytesFetched accounting versus an untraced run — telemetry observes the
// pipeline, it never steers it.
func TestTelemetryByteIdentical(t *testing.T) {
	ts, v := startTestServer(t, "RS", 3)
	imu := func() *hmd.IMU { return hmd.NewIMU(headtrace.Generate(v, 0)) }

	traced := NewPlayer(ts.URL)
	traced.Trace = telemetry.NewTracer(0)
	traced.Fetch.BackoffBase = time.Millisecond
	sOn, fOn, err := traced.Play("RS", imu(), 3)
	if err != nil {
		t.Fatal(err)
	}

	plain := NewPlayer(ts.URL)
	plain.Fetch.BackoffBase = time.Millisecond
	sOff, fOff, err := plain.Play("RS", imu(), 3)
	if err != nil {
		t.Fatal(err)
	}

	if !framesEqual(fOn, fOff) {
		t.Fatal("telemetry changed displayed pixels")
	}
	if sOn.Hits != sOff.Hits || sOn.Misses != sOff.Misses {
		t.Errorf("telemetry changed QoE: traced %+v vs plain %+v", sOn, sOff)
	}
	if sOn.BytesFetched != sOff.BytesFetched {
		t.Errorf("telemetry changed traffic: %d vs %d bytes", sOn.BytesFetched, sOff.BytesFetched)
	}
	assertAccounting(t, "traced", sOn, fOn)

	// The tracer actually saw the run: one finished span per displayed
	// frame, hits matching the QoE accounting, fetch observed by the fetch
	// layer (including its prefetch goroutines), and decode inside the frame
	// spans — each frame that is not frozen decodes what it shows.
	tr := traced.Trace
	if got := tr.Frames(); got != int64(len(fOn)) {
		t.Errorf("tracer frames = %d, want %d", got, len(fOn))
	}
	if got := tr.Hits(); got != int64(sOn.Hits) {
		t.Errorf("tracer hits = %d, want %d", got, sOn.Hits)
	}
	byStage := map[string]telemetry.StageSummary{}
	for _, s := range tr.Summary() {
		byStage[s.Stage] = s
	}
	if byStage["fovcheck"].Count != int64(sOn.Frames) {
		t.Errorf("fovcheck observations = %d, want %d", byStage["fovcheck"].Count, sOn.Frames)
	}
	if byStage["fetch"].Count == 0 {
		t.Errorf("fetch layer stage missing: %+v", byStage)
	}
	if want := int64(sOn.Frames - sOn.FrozenFrames); byStage["decode"].Count != want {
		t.Errorf("decode observations = %d, want one per unfrozen frame, %d", byStage["decode"].Count, want)
	}
	if sOn.Hits > 0 && byStage["display"].Count != int64(sOn.Hits) {
		t.Errorf("display observations = %d, want %d", byStage["display"].Count, sOn.Hits)
	}
	wantRender := int64(sOn.Misses - sOn.FrozenFrames)
	if wantRender > 0 && byStage["render"].Count != wantRender {
		t.Errorf("render observations = %d, want %d", byStage["render"].Count, wantRender)
	}
	// Per-frame ring: every displayed frame retained (ring ≥ run length),
	// oldest-first, with Hit flags consistent with the totals.
	rec := tr.Recent(0)
	if len(rec) != len(fOn) {
		t.Fatalf("ring holds %d traces, want %d", len(rec), len(fOn))
	}
	var ringHits int
	for _, r := range rec {
		if r.Hit {
			ringHits++
		}
		if r.Stages[telemetry.StageDecode] == 0 {
			t.Errorf("frame %d: no decode in its span", r.Frame)
		}
	}
	if ringHits != sOn.Hits {
		t.Errorf("ring hits = %d, want %d", ringHits, sOn.Hits)
	}

	// And the untraced player really ran untraced.
	if plain.Trace != nil {
		t.Error("plain player grew a tracer")
	}
}

// TestFetcherSharesPlayerTracer: the fetcher constructed by Player wires
// the player's tracer, and an untraced player's fetcher stays untraced.
func TestFetcherSharesPlayerTracer(t *testing.T) {
	p := NewPlayer("http://unused")
	p.Trace = telemetry.NewTracer(0)
	if got := p.Fetcher().trace; got != p.Trace {
		t.Error("fetcher did not inherit player tracer")
	}
	if got := NewPlayer("http://unused").Fetcher().trace; got != nil {
		t.Error("untraced player's fetcher has a tracer")
	}
}
