package client

import (
	"testing"

	"evr/internal/scene"
)

func prepared(t *testing.T, video string) *System {
	t.Helper()
	s := NewSystem()
	v, ok := scene.ByName(video)
	if !ok {
		t.Fatalf("unknown video %q", video)
	}
	if err := s.Prepare(v); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPrepareAndPlan(t *testing.T) {
	s := prepared(t, "RS")
	if _, ok := s.Plan("RS"); !ok {
		t.Error("plan missing after Prepare")
	}
	if _, ok := s.Plan("Nope"); ok {
		t.Error("unknown plan found")
	}
}

func TestEvaluateUnpreparedFails(t *testing.T) {
	s := NewSystem()
	if _, err := s.Evaluate("RS", Baseline, OnlineStreaming, EvaluateOptions{Users: 1}); err == nil {
		t.Error("unprepared video evaluated")
	}
}

func TestEvaluateSummary(t *testing.T) {
	s := prepared(t, "RS")
	base, err := s.Evaluate("RS", Baseline, OnlineStreaming, EvaluateOptions{Users: 3})
	if err != nil {
		t.Fatal(err)
	}
	if base.Users != 3 || base.FramesTotal != 3*1800 {
		t.Fatalf("summary shape: %+v", base.Users)
	}
	sh, err := s.Evaluate("RS", SH, OnlineStreaming, EvaluateOptions{Users: 3})
	if err != nil {
		t.Fatal(err)
	}
	if save := sh.ComputeSavingPct(base); save < 15 || save > 60 {
		t.Errorf("S+H compute saving = %.1f%%, want substantial", save)
	}
	if save := sh.DeviceSavingPct(base); save < 10 || save > 50 {
		t.Errorf("S+H device saving = %.1f%%", save)
	}
	if sh.MissRate() <= 0 || sh.MissRate() > 0.3 {
		t.Errorf("miss rate = %v", sh.MissRate())
	}
	if base.PTShare() < 0.3 || base.PTShare() > 0.6 {
		t.Errorf("baseline PT share = %v, want ≈0.45", base.PTShare())
	}
	if sh.BandwidthSavingPct() <= 0 {
		t.Errorf("bandwidth saving = %v", sh.BandwidthSavingPct())
	}
}

func TestEvaluateDefaultsTo59Users(t *testing.T) {
	s := prepared(t, "Timelapse")
	sum, err := s.Evaluate("Timelapse", H, OfflinePlayback, EvaluateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Users != 59 {
		t.Errorf("default users = %d, want 59", sum.Users)
	}
}

// TestEvaluateHonorsPartialConfig checks that a Config built field by
// field, without DefaultConfig, is played as given: a perfect predictor
// (ForceAllHits) leaves no FOV miss.
func TestEvaluateHonorsPartialConfig(t *testing.T) {
	s := prepared(t, "RS")
	sum, err := s.Evaluate("RS", SH, OnlineStreaming, EvaluateOptions{Users: 2, Config: Config{ForceAllHits: true}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.FOVChecks == 0 || sum.FOVMisses != 0 {
		t.Errorf("ForceAllHits config: %d checks, %d misses; want checks and no miss", sum.FOVChecks, sum.FOVMisses)
	}
}

func TestSummaryZeroSafe(t *testing.T) {
	var sum Summary
	if sum.PTShare() != 0 || sum.MissRate() != 0 || sum.FPSDropPct() != 0 ||
		sum.BandwidthSavingPct() != 0 || sum.ComputeSavingPct(Summary{}) != 0 ||
		sum.DeviceSavingPct(Summary{}) != 0 {
		t.Error("zero summary helpers not zero")
	}
}
