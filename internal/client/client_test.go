package client

import (
	"testing"

	"evr/internal/energy"
	"evr/internal/headtrace"
	"evr/internal/sas"
	"evr/internal/scene"
)

// runOne simulates a handful of users and merges the results.
func runOne(t *testing.T, video string, variant Variant, uc UseCase, users int) Result {
	t.Helper()
	v, ok := scene.ByName(video)
	if !ok {
		t.Fatalf("unknown video %q", video)
	}
	plan, err := sas.BuildPlan(v, sas.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(variant, uc)
	var agg Result
	for u := 0; u < users; u++ {
		r, err := Simulate(v, headtrace.Generate(v, u), plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(r)
	}
	return agg
}

func cmJoules(r Result) float64 {
	return r.Ledger.Joules(energy.Compute) + r.Ledger.Joules(energy.Memory)
}

func TestVariantUseCaseStrings(t *testing.T) {
	if Baseline.String() != "baseline" || S.String() != "S" || H.String() != "H" || SH.String() != "S+H" {
		t.Error("variant names broken")
	}
	if OnlineStreaming.String() != "online-streaming" || OfflinePlayback.String() != "offline-playback" {
		t.Error("use case names broken")
	}
}

func TestValidateRejectsSASOffline(t *testing.T) {
	cfg := DefaultConfig(S, OfflinePlayback)
	if err := cfg.Validate(); err == nil {
		t.Error("SAS without a server accepted")
	}
	cfg = DefaultConfig(SH, LiveStreaming)
	if err := cfg.Validate(); err == nil {
		t.Error("S+H for live streaming accepted")
	}
	if err := DefaultConfig(H, LiveStreaming).Validate(); err != nil {
		t.Errorf("valid live H rejected: %v", err)
	}
}

func TestBaselinePowerNearFiveWatts(t *testing.T) {
	// §3: rendering VR video draws ~5 W, above the 3.5 W TDP.
	r := runOne(t, "RS", Baseline, OnlineStreaming, 3)
	p := r.Ledger.AveragePowerW()
	if p < 4.2 || p > 5.8 {
		t.Errorf("baseline power = %.2f W, want ≈5 W", p)
	}
	if p <= energy.MobileTDP {
		t.Errorf("baseline power %.2f W should exceed the %.1f W TDP", p, energy.MobileTDP)
	}
}

func TestFig3aComponentShares(t *testing.T) {
	// Display/network/storage are minor; compute + memory dominate.
	r := runOne(t, "NYC", Baseline, OnlineStreaming, 3)
	l := r.Ledger
	if s := l.Share(energy.Display); s < 0.04 || s > 0.12 {
		t.Errorf("display share = %.2f, want ≈0.07", s)
	}
	if s := l.Share(energy.Network); s < 0.05 || s > 0.14 {
		t.Errorf("network share = %.2f, want ≈0.09", s)
	}
	if s := l.Share(energy.Storage); s < 0.01 || s > 0.08 {
		t.Errorf("storage share = %.2f, want ≈0.04", s)
	}
	if cm := l.Share(energy.Compute) + l.Share(energy.Memory); cm < 0.7 {
		t.Errorf("compute+memory share = %.2f, want dominant", cm)
	}
}

func TestFig3bPTShare(t *testing.T) {
	// PT is ~40% of compute+memory energy, highest for Rhino.
	share := func(video string) float64 {
		r := runOne(t, video, Baseline, OnlineStreaming, 3)
		return (r.PTComputeJ + r.PTMemoryJ) / cmJoules(r)
	}
	rhino := share("Rhino")
	paris := share("Paris")
	if rhino < 0.30 || rhino > 0.60 {
		t.Errorf("Rhino PT share = %.2f, want ≈0.5", rhino)
	}
	if paris >= rhino {
		t.Errorf("Paris PT share %.2f should be below Rhino's %.2f", paris, rhino)
	}
}

func TestFig12VariantOrdering(t *testing.T) {
	// S+H must save the most compute+memory energy; every variant must
	// save something (averaged across the eval set, as in the paper).
	var sumBase, sumS, sumH, sumSH float64
	for _, v := range scene.EvalSet() {
		sumBase += cmJoules(runOne(t, v.Name, Baseline, OnlineStreaming, 3))
		sumS += cmJoules(runOne(t, v.Name, S, OnlineStreaming, 3))
		sumH += cmJoules(runOne(t, v.Name, H, OnlineStreaming, 3))
		sumSH += cmJoules(runOne(t, v.Name, SH, OnlineStreaming, 3))
	}
	if !(sumSH < sumH && sumH < sumS && sumS < sumBase) {
		t.Errorf("ordering violated: base=%.0f S=%.0f H=%.0f SH=%.0f", sumBase, sumS, sumH, sumSH)
	}
	save := func(x float64) float64 { return 1 - x/sumBase }
	if s := save(sumSH); s < 0.30 || s > 0.55 {
		t.Errorf("S+H compute saving = %.2f, want ≈0.41", s)
	}
	if s := save(sumH); s < 0.25 || s > 0.48 {
		t.Errorf("H compute saving = %.2f, want ≈0.38", s)
	}
	if s := save(sumS); s < 0.15 || s > 0.45 {
		t.Errorf("S compute saving = %.2f, want ≈0.22", s)
	}
}

func TestFig12DeviceLevelSavings(t *testing.T) {
	// S+H device-level saving ≈ 29% on average, up to 42%.
	var base, sh float64
	for _, v := range scene.EvalSet() {
		b := runOne(t, v.Name, Baseline, OnlineStreaming, 3)
		s := runOne(t, v.Name, SH, OnlineStreaming, 3)
		base += b.Ledger.Total()
		sh += s.Ledger.Total()
	}
	if s := 1 - sh/base; s < 0.20 || s > 0.45 {
		t.Errorf("S+H device saving = %.2f, want ≈0.29", s)
	}
}

func TestFig13FPSDropAndBandwidth(t *testing.T) {
	r := runOne(t, "Elephant", SH, OnlineStreaming, 4)
	if d := r.FPSDropPct(); d > 5 {
		t.Errorf("FPS drop = %.2f%%, paper bound is ~1%% (5%% imperceptible)", d)
	}
	if b := r.BandwidthSavingPct(); b < 5 || b > 50 {
		t.Errorf("bandwidth saving = %.1f%%, want ≈20-30%%", b)
	}
}

func TestMissRateBand(t *testing.T) {
	// §8.2: miss rates range ~5% to ~12%, Timelapse lowest.
	tl := runOne(t, "Timelapse", SH, OnlineStreaming, 4).MissRate()
	rs := runOne(t, "RS", SH, OnlineStreaming, 4).MissRate()
	if tl >= rs {
		t.Errorf("Timelapse miss %.3f should be below RS %.3f", tl, rs)
	}
	if tl < 0.005 || rs > 0.25 {
		t.Errorf("miss rates out of band: %.3f, %.3f", tl, rs)
	}
}

func TestFig15LiveAndOffline(t *testing.T) {
	// H applies to live streaming and offline playback; offline has no
	// network energy, so its relative device saving is slightly higher.
	baseLive := runOne(t, "Paris", Baseline, LiveStreaming, 3)
	hLive := runOne(t, "Paris", H, LiveStreaming, 3)
	baseOff := runOne(t, "Paris", Baseline, OfflinePlayback, 3)
	hOff := runOne(t, "Paris", H, OfflinePlayback, 3)

	liveSave := 1 - hLive.Ledger.Total()/baseLive.Ledger.Total()
	offSave := 1 - hOff.Ledger.Total()/baseOff.Ledger.Total()
	if liveSave < 0.12 || liveSave > 0.40 {
		t.Errorf("live H device saving = %.2f, want ≈0.21", liveSave)
	}
	if offSave <= liveSave {
		t.Errorf("offline saving %.2f should exceed live %.2f (no network energy)", offSave, liveSave)
	}
	if baseOff.Ledger.Joules(energy.Network) != 0 {
		t.Error("offline playback charged network energy")
	}
}

func TestSASHitsBypassPT(t *testing.T) {
	r := runOne(t, "Timelapse", SH, OnlineStreaming, 3)
	if r.FramesHit == 0 || r.FramesPT == 0 {
		t.Fatalf("expected both hits and PT frames: %+v", r.FramesHit)
	}
	if r.FramesHit+r.FramesPT != r.FramesTotal {
		t.Errorf("frames don't add up: %d + %d != %d", r.FramesHit, r.FramesPT, r.FramesTotal)
	}
	if float64(r.FramesHit)/float64(r.FramesTotal) < 0.4 {
		t.Errorf("hit fraction %.2f too low for a steady video", float64(r.FramesHit)/float64(r.FramesTotal))
	}
	// Baseline and H never run the checker.
	b := runOne(t, "Timelapse", H, OnlineStreaming, 2)
	if b.FOVChecks != 0 || b.FramesHit != 0 {
		t.Errorf("H variant ran SAS: %+v", b)
	}
}

func TestDeterministicSimulation(t *testing.T) {
	v, _ := scene.ByName("RS")
	plan, _ := sas.BuildPlan(v, sas.DefaultConfig())
	tr := headtrace.Generate(v, 5)
	cfg := DefaultConfig(SH, OnlineStreaming)
	a, _ := Simulate(v, tr, plan, cfg)
	b, _ := Simulate(v, tr, plan, cfg)
	if a.Ledger.Total() != b.Ledger.Total() || a.FramesHit != b.FramesHit {
		t.Error("simulation is not deterministic")
	}
}

func TestSimulateRejectsInvalidConfig(t *testing.T) {
	v, _ := scene.ByName("RS")
	plan, _ := sas.BuildPlan(v, sas.DefaultConfig())
	cfg := DefaultConfig(SH, LiveStreaming)
	if _, err := Simulate(v, headtrace.Generate(v, 0), plan, cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestResultHelpersZeroSafe(t *testing.T) {
	var r Result
	if r.MissRate() != 0 || r.FPSDropPct() != 0 || r.BandwidthSavingPct() != 0 {
		t.Error("zero result helpers not zero")
	}
}

func TestTiledVariantTradeoffs(t *testing.T) {
	// The §9 related-work baseline: tiled streaming must save bandwidth
	// strongly but device energy weakly, and its PT energy must equal the
	// baseline's (tiling never touches the PT).
	base := runOne(t, "Elephant", Baseline, OnlineStreaming, 3)
	tiled := runOne(t, "Elephant", Tiled, OnlineStreaming, 3)
	if tiled.StreamedBytes >= base.StreamedBytes/2+base.StreamedBytes/4 {
		t.Errorf("tiled bytes %d not well below baseline %d", tiled.StreamedBytes, base.StreamedBytes)
	}
	if tiled.PTComputeJ != base.PTComputeJ {
		t.Errorf("tiling changed PT energy: %v vs %v", tiled.PTComputeJ, base.PTComputeJ)
	}
	baseTotal := base.Ledger.Total()
	tiledTotal := tiled.Ledger.Total()
	devSave := 1 - tiledTotal/baseTotal
	if devSave <= 0.05 || devSave >= 0.30 {
		t.Errorf("tiled device saving %.2f outside the weak band", devSave)
	}
}

func TestTiledValidation(t *testing.T) {
	if err := DefaultConfig(Tiled, OfflinePlayback).Validate(); err == nil {
		t.Error("offline tiled accepted")
	}
	if err := DefaultConfig(Tiled, LiveStreaming).Validate(); err != nil {
		t.Errorf("live tiled rejected: %v", err)
	}
	if Tiled.String() != "tiled" {
		t.Error("tiled name broken")
	}
}
