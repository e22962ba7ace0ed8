package client

import (
	"testing"

	"evr/internal/energy"
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
// the predictive choice takes the track the pose half a segment ahead
// selects, the shipped choice the track of the segment's first pose.
func TestPredictiveChoiceLooksHalfASegmentAhead(t *testing.T) {
	v, _ := scene.ByName("RS")
	plan, err := sas.BuildPlan(v, sas.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := headtrace.Generate(v, 0)
	shipped := &simulator{cfg: DefaultConfig(SH, OnlineStreaming)}
	pred := &simulator{cfg: shipped.cfg}
	pred.cfg.Ext.PredictiveChoice = true
	checked := 0
	for i := range plan.Segments {
		seg := &plan.Segments[i]
		if seg.Start >= len(tr.Samples) || len(seg.Tracks) == 0 {
			continue
		}
		if got, want := shipped.chooseTrack(seg, tr), sas.ChooseTrack(seg, tr.Samples[seg.Start].O); got != want {
			t.Errorf("segment %d: shipped choice %d, want %d (first pose)", i, got, want)
		}
		if got, want := pred.chooseTrack(seg, tr), sas.ChooseTrack(seg, predictGaze(tr, seg.Start, seg.Frames/2)); got != want {
			t.Errorf("segment %d: predictive choice %d, want %d (half a segment ahead)", i, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no segment had FOV tracks to choose from")
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
