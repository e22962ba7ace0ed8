package client

import (
	"testing"

	"evr/internal/energy"
	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/sas"
	"evr/internal/scene"
)

// runExt simulates users with a custom config.
func runExt(t *testing.T, video string, cfg Config, users int) Result {
	t.Helper()
	v, _ := scene.ByName(video)
	plan, err := sas.BuildPlan(v, sas.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var agg Result
	for u := 0; u < users; u++ {
		r, err := Simulate(v, headtrace.Generate(v, u), plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		agg.Ledger.Merge(r.Ledger)
		agg.FOVChecks += r.FOVChecks
		agg.FOVMisses += r.FOVMisses
		agg.StreamedBytes += r.StreamedBytes
		agg.BaselineStreamedBytes += r.BaselineStreamedBytes
		agg.FramesPT += r.FramesPT
		agg.FramesTotal += r.FramesTotal
	}
	return agg
}

func TestPredictiveChoiceReducesMisses(t *testing.T) {
	// The §8.2 future-work hybrid: choosing the FOV video with a mid-
	// segment pose prediction must not increase the miss rate, and should
	// help on exploratory content (RS) averaged over users.
	base := DefaultConfig(SH, OnlineStreaming)
	pred := base
	pred.Ext.PredictiveChoice = true

	var missBase, missPred float64
	for _, video := range []string{"RS", "Paris", "Elephant"} {
		b := runExt(t, video, base, 6)
		p := runExt(t, video, pred, 6)
		missBase += b.MissRate()
		missPred += p.MissRate()
	}
	if missPred >= missBase {
		t.Errorf("predictive choice did not reduce average miss rate: %.4f vs %.4f",
			missPred/3, missBase/3)
	}
}

func TestPredictiveChoiceImprovesBandwidth(t *testing.T) {
	base := DefaultConfig(SH, OnlineStreaming)
	pred := base
	pred.Ext.PredictiveChoice = true
	var bwBase, bwPred float64
	for _, video := range []string{"RS", "Paris", "Elephant"} {
		bwBase += runExt(t, video, base, 6).BandwidthSavingPct()
		bwPred += runExt(t, video, pred, 6).BandwidthSavingPct()
	}
	if bwPred < bwBase-1 {
		t.Errorf("predictive choice lost bandwidth: %.1f%% vs %.1f%%", bwPred/3, bwBase/3)
	}
}

// TestPredictiveChoiceLooksHalfASegmentAhead pins the extension's horizon:
// a head that turns from one FOV video's pose to another's half a segment
// in gets the first video from the shipped choice, made with the segment's
// first pose, and the second from the predictive one.
func TestPredictiveChoiceLooksHalfASegmentAhead(t *testing.T) {
	v, _ := scene.ByName("RS")
	a, b := geom.Orientation{}, geom.Orientation{Yaw: 1}
	seg := sas.SegmentPlan{Frames: 30, OrigBytes: 1, FOVBytes: []int64{10, 20}}
	tr := headtrace.Trace{Samples: make([]headtrace.Sample, seg.Frames)}
	for _, pose := range []geom.Orientation{a, b} {
		track := sas.ClusterTrack{Centers: make([]geom.Orientation, seg.Frames)}
		for f := range track.Centers {
			track.Centers[f] = pose
		}
		seg.Tracks = append(seg.Tracks, track)
	}
	for f := range tr.Samples {
		tr.Samples[f].O = a
		if f >= seg.Frames/2 {
			tr.Samples[f].O = b
		}
	}
	plan := &sas.Plan{Cfg: sas.DefaultConfig(), Segments: []sas.SegmentPlan{seg}}
	shipped := DefaultConfig(SH, OnlineStreaming)
	pred := shipped
	pred.Ext.PredictiveChoice = true
	for _, tc := range []struct {
		name string
		cfg  Config
		want int64 // the chosen FOV video's bytes, and the original's on a fallback
	}{
		{"shipped", shipped, 10 + 1},
		{"predictive", pred, 20 + 1},
	} {
		res, err := Simulate(v, tr, plan, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.SegmentBytes[0] != tc.want {
			t.Errorf("%s choice streamed %d bytes, want %d", tc.name, res.SegmentBytes[0], tc.want)
		}
	}
}

func TestFusedPTESavesMemoryEnergy(t *testing.T) {
	// §6.3 display-processor integration: fusing the PTE removes the
	// FOV-frame DRAM round trip, so memory energy must drop while compute
	// stays identical.
	plain := DefaultConfig(H, OnlineStreaming)
	fused := plain
	fused.Ext.FusedPTE = true
	p := runExt(t, "Rhino", plain, 3)
	f := runExt(t, "Rhino", fused, 3)
	if f.Ledger.Joules(energy.Memory) >= p.Ledger.Joules(energy.Memory) {
		t.Errorf("fused PTE memory energy %v not below discrete %v",
			f.Ledger.Joules(energy.Memory), p.Ledger.Joules(energy.Memory))
	}
	if f.Ledger.Joules(energy.Compute) != p.Ledger.Joules(energy.Compute) {
		t.Errorf("fused PTE changed compute energy: %v vs %v",
			f.Ledger.Joules(energy.Compute), p.Ledger.Joules(energy.Compute))
	}
	// The saving equals the avoided traffic: 2 × viewport bytes per PT frame.
	m := energy.TX2()
	wantDelta := m.DRAMJPerByte * float64(2*2560*1440*3) * float64(p.FramesPT)
	gotDelta := p.Ledger.Joules(energy.Memory) - f.Ledger.Joules(energy.Memory)
	if rel := (gotDelta - wantDelta) / wantDelta; rel > 0.01 || rel < -0.01 {
		t.Errorf("fused saving %v J, want %v J", gotDelta, wantDelta)
	}
}

func TestFusedPTEIgnoredOnGPUPath(t *testing.T) {
	// Fusing the PTE is meaningless for the GPU baseline: results must be
	// identical.
	plain := DefaultConfig(Baseline, OnlineStreaming)
	fused := plain
	fused.Ext.FusedPTE = true
	p := runExt(t, "RS", plain, 2)
	f := runExt(t, "RS", fused, 2)
	if p.Ledger.Total() != f.Ledger.Total() {
		t.Error("FusedPTE changed the GPU baseline")
	}
}

func TestPredictGazeClamps(t *testing.T) {
	v, _ := scene.ByName("RS")
	tr := headtrace.Generate(v, 0)
	if predictGaze(tr, -5, 0) != tr.Samples[0].O {
		t.Error("negative frame should clamp")
	}
	last := len(tr.Samples) - 1
	if predictGaze(tr, last, 100) != tr.Samples[last].O {
		t.Error("overflow should clamp")
	}
	if predictGaze(headtrace.Trace{}, 0, 0) != (predictGaze(headtrace.Trace{}, 0, 0)) {
		t.Error("empty trace unstable")
	}
}
