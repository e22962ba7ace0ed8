package telemetry

import (
	"sync"
	"testing"
	"time"
)

// addStage attributes d to stage st of sp, as a Start/Stop pair that
// measured d would.
func addStage(sp *FrameSpan, st Stage, d time.Duration) { sp.rec.Stages[st] += d }

func TestTracerFrameSpans(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		sp := tr.StartFrame(0, i)
		addStage(sp, StageFOVCheck, 10*time.Microsecond)
		if i == 0 {
			sp.SetHit(true)
			addStage(sp, StageDisplay, time.Millisecond)
		} else {
			addStage(sp, StageRender, 2*time.Millisecond)
		}
		sp.Finish()
	}
	tr.Observe(StageFetch, 5*time.Millisecond)

	if tr.Frames() != 3 {
		t.Errorf("frames = %d, want 3", tr.Frames())
	}
	if tr.Hits() != 1 {
		t.Errorf("hits = %d, want 1", tr.Hits())
	}
	sums := tr.Summary()
	byStage := map[string]StageSummary{}
	for _, s := range sums {
		byStage[s.Stage] = s
	}
	if byStage["fovcheck"].Count != 3 {
		t.Errorf("fovcheck count = %d, want 3", byStage["fovcheck"].Count)
	}
	if byStage["render"].Count != 2 || byStage["display"].Count != 1 || byStage["fetch"].Count != 1 {
		t.Errorf("stage counts wrong: %+v", byStage)
	}
	if _, ok := byStage["decode"]; ok {
		t.Error("decode reported with zero observations")
	}
	// Pipeline order: fetch before fovcheck before render.
	if len(sums) < 3 || sums[0].Stage != "fetch" {
		t.Errorf("summary order = %v", sums)
	}
	if byStage["render"].Max < 2*time.Millisecond-time.Microsecond {
		t.Errorf("render max = %v", byStage["render"].Max)
	}
}

func TestTracerStartStop(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.StartFrame(1, 2)
	sp.Start(StageRender)
	time.Sleep(2 * time.Millisecond)
	sp.Stop(StageRender)
	sp.Stop(StageDecode) // no matching Start: ignored
	sp.Finish()
	rec := tr.Recent(0)
	if len(rec) != 1 || rec[0].Segment != 1 || rec[0].Frame != 2 {
		t.Fatalf("recent = %+v", rec)
	}
	if rec[0].Stages[StageRender] < time.Millisecond {
		t.Errorf("render stage = %v, want ≥ 1ms", rec[0].Stages[StageRender])
	}
	if rec[0].Stages[StageDecode] != 0 {
		t.Errorf("unstarted stage recorded %v", rec[0].Stages[StageDecode])
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		sp := tr.StartFrame(0, i)
		addStage(sp, StageDisplay, time.Microsecond)
		sp.Finish()
	}
	rec := tr.Recent(0)
	if len(rec) != 4 {
		t.Fatalf("ring holds %d, want 4", len(rec))
	}
	for i, r := range rec {
		if r.Frame != 6+i { // oldest-first: frames 6,7,8,9
			t.Errorf("ring[%d].Frame = %d, want %d", i, r.Frame, 6+i)
		}
	}
	if got := tr.Recent(2); len(got) != 2 || got[1].Frame != 9 {
		t.Errorf("Recent(2) = %+v", got)
	}
	if tr.Frames() != 10 {
		t.Errorf("frames = %d, want 10", tr.Frames())
	}
}

// TestTracerConcurrent drives spans and direct observations from many
// goroutines (playback loop + prefetchers in real life) under the -race
// gate, and checks nothing is lost.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	const goroutines, iters = 8, 300
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := tr.StartFrame(g, i)
				addStage(sp, StageRender, time.Microsecond)
				sp.SetHit(i%2 == 0)
				sp.Finish()
				tr.Observe(StageFetch, time.Microsecond)
				if i%100 == 0 {
					tr.Summary()
					tr.Recent(8)
				}
			}
		}(g)
	}
	wg.Wait()
	if want := int64(goroutines * iters); tr.Frames() != want {
		t.Errorf("frames = %d, want %d", tr.Frames(), want)
	}
	if want := int64(goroutines * iters); tr.hists[StageFetch].Snapshot().Count != want {
		t.Errorf("fetch observations lost")
	}
	if got := len(tr.Recent(0)); got != 64 {
		t.Errorf("ring = %d entries, want 64", got)
	}
}

func TestStageStrings(t *testing.T) {
	want := []string{"fetch", "decode", "fovcheck", "render", "display"}
	for st := Stage(0); st < NumStages; st++ {
		if st.String() != want[st] {
			t.Errorf("stage %d = %q, want %q", st, st.String(), want[st])
		}
	}
	if Stage(200).String() != "unknown" {
		t.Error("out-of-range stage name")
	}
}
