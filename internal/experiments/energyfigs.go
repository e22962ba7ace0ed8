package experiments

import (
	"fmt"
	"sync"

	"evr/internal/client"
	"evr/internal/energy"
	"evr/internal/headtrace"
	"evr/internal/hmp"
	"evr/internal/scene"
)

// evalCache memoizes evaluation runs: several figures reuse the same
// (video, variant, use-case, users) summaries.
var evalCache = struct {
	sync.Mutex
	m map[string]client.Summary
}{m: make(map[string]client.Summary)}

// systems caches prepared System instances keyed by SAS utilization.
var systems = struct {
	sync.Mutex
	m map[float64]*client.System
}{m: make(map[float64]*client.System)}

func systemFor(utilization float64) *client.System {
	systems.Lock()
	defer systems.Unlock()
	if s, ok := systems.m[utilization]; ok {
		return s
	}
	s := client.NewSystem()
	s.SASConfig.Utilization = utilization
	for _, v := range scene.Catalog() {
		if err := s.Prepare(v); err != nil {
			panic(err)
		}
	}
	systems.m[utilization] = s
	return s
}

// evaluate runs (or recalls) one summary at full utilization.
func evaluate(video string, variant client.Variant, uc client.UseCase, users int) client.Summary {
	return evaluateAt(1.0, video, variant, uc, users, client.Config{})
}

// evaluateAt runs a summary at a given utilization with an optional device
// config override (zero value = defaults).
func evaluateAt(utilization float64, video string, variant client.Variant, uc client.UseCase, users int, cfg client.Config) client.Summary {
	key := fmt.Sprintf("%v|%s|%d|%d|%d|%v|%v", utilization, video, variant, uc, users, cfg.ForceAllHits, cfg.ExtraComputeJPerFrame)
	evalCache.Lock()
	if s, ok := evalCache.m[key]; ok {
		evalCache.Unlock()
		return s
	}
	evalCache.Unlock()
	sys := systemFor(utilization)
	sum, err := sys.Evaluate(video, variant, uc, client.EvaluateOptions{Users: users, Config: cfg})
	if err != nil {
		panic(err)
	}
	evalCache.Lock()
	evalCache.m[key] = sum
	evalCache.Unlock()
	return sum
}

// Fig3a reproduces the device power characterization (§3): average power
// and its split across the five components during baseline playback.
func Fig3a(users int) Table {
	t := Table{
		ID:     "Fig 3a",
		Title:  "Baseline device power and per-component split",
		Header: []string{"video", "power(W)", "display", "network", "storage", "memory", "compute"},
		Notes: []string{
			"paper: ~5 W total (above the 3.5 W TDP); network ≈9%, display ≈7%, storage ≈4%",
		},
	}
	for _, v := range scene.PowerSet() {
		s := evaluate(v.Name, client.Baseline, client.OnlineStreaming, users)
		l := s.Ledger
		t.Rows = append(t.Rows, []string{
			v.Name, f2(l.AveragePowerW()),
			pct(l.Share(energy.Display)), pct(l.Share(energy.Network)), pct(l.Share(energy.Storage)),
			pct(l.Share(energy.Memory)), pct(l.Share(energy.Compute)),
		})
	}
	return t
}

// Fig3b reproduces the "VR tax" split (§3): PT's contribution to compute
// and memory energy.
func Fig3b(users int) Table {
	t := Table{
		ID:     "Fig 3b",
		Title:  "Projective transformation's share of compute and memory energy",
		Header: []string{"video", "of compute", "of memory", "of compute+memory"},
		Notes: []string{
			"paper: PT averages ~40% of compute+memory energy, up to 53% for Rhino,",
			"and exercises the SoC more than the DRAM",
		},
	}
	for _, v := range scene.PowerSet() {
		s := evaluate(v.Name, client.Baseline, client.OnlineStreaming, users)
		comp := s.Ledger.Joules(energy.Compute)
		mem := s.Ledger.Joules(energy.Memory)
		t.Rows = append(t.Rows, []string{
			v.Name,
			pct(s.PTComputeJ / comp),
			pct(s.PTMemoryJ / mem),
			pct(s.PTShare()),
		})
	}
	return t
}

// Fig12 reproduces the online-streaming energy savings: compute+memory and
// device-level savings of S, H, and S+H over the baseline.
func Fig12(users int) Table {
	t := Table{
		ID:     "Fig 12",
		Title:  "Online streaming: energy savings over the baseline",
		Header: []string{"video", "S cm", "H cm", "S+H cm", "S dev", "H dev", "S+H dev"},
		Notes: []string{
			"paper: compute savings S 22% / H 38% / S+H 41% avg (58% max);",
			"device savings S+H 29% avg, 42% max",
		},
	}
	for _, v := range scene.EvalSet() {
		base := evaluate(v.Name, client.Baseline, client.OnlineStreaming, users)
		sv := evaluate(v.Name, client.S, client.OnlineStreaming, users)
		hv := evaluate(v.Name, client.H, client.OnlineStreaming, users)
		sh := evaluate(v.Name, client.SH, client.OnlineStreaming, users)
		t.Rows = append(t.Rows, []string{
			v.Name,
			f1(sv.ComputeSavingPct(base)), f1(hv.ComputeSavingPct(base)), f1(sh.ComputeSavingPct(base)),
			f1(sv.DeviceSavingPct(base)), f1(hv.DeviceSavingPct(base)), f1(sh.DeviceSavingPct(base)),
		})
	}
	return t
}

// Fig13 reproduces the user-experience and bandwidth figures: FPS drop and
// bandwidth savings of S+H.
func Fig13(users int) Table {
	t := Table{
		ID:     "Fig 13",
		Title:  "S+H: FPS drop and bandwidth savings",
		Header: []string{"video", "fps drop", "bandwidth saving", "rebuffers/user"},
		Notes: []string{
			"paper: FPS drop ≈1% (a 5% drop is imperceptible); bandwidth saving up to 34%, 28% avg",
		},
	}
	for _, v := range scene.EvalSet() {
		sh := evaluate(v.Name, client.SH, client.OnlineStreaming, users)
		t.Rows = append(t.Rows, []string{
			v.Name,
			f2(sh.FPSDropPct()) + "%",
			f1(sh.BandwidthSavingPct()) + "%",
			f1(float64(sh.Rebuffers) / float64(sh.Users)),
		})
	}
	return t
}

// Fig14 reproduces the storage/energy trade-off: object utilization swept
// from 25% to 100%.
func Fig14(users int) Table {
	t := Table{
		ID:     "Fig 14",
		Title:  "Storage overhead vs energy saving across object utilization",
		Header: []string{"video", "util", "storage overhead", "S+H device saving"},
		Notes: []string{
			"paper: at 100% utilization storage overhead averages 4.2x (2.0x Paris, 7.6x Timelapse);",
			"at 25% it is ~1.1x while still saving ~24% energy",
		},
	}
	for _, v := range scene.EvalSet() {
		for _, u := range []float64{0.25, 0.5, 0.75, 1.0} {
			sys := systemFor(u)
			plan, _ := sys.Plan(v.Name)
			base := evaluateAt(u, v.Name, client.Baseline, client.OnlineStreaming, users, client.Config{})
			sh := evaluateAt(u, v.Name, client.SH, client.OnlineStreaming, users, client.Config{})
			t.Rows = append(t.Rows, []string{
				v.Name, fmt.Sprintf("%.0f%%", u*100),
				f2(plan.StorageOverhead()) + "x",
				f1(sh.DeviceSavingPct(base)) + "%",
			})
		}
	}
	return t
}

// Fig15 reproduces the live-streaming and offline-playback use-cases where
// only H applies.
func Fig15(users int) Table {
	t := Table{
		ID:     "Fig 15",
		Title:  "H variant: live streaming and offline playback savings",
		Header: []string{"video", "live cm", "live dev", "offline cm", "offline dev"},
		Notes: []string{
			"paper: live 38% compute / 21% device; offline similar compute, slightly higher device (23%)",
		},
	}
	for _, v := range scene.EvalSet() {
		baseLive := evaluate(v.Name, client.Baseline, client.LiveStreaming, users)
		hLive := evaluate(v.Name, client.H, client.LiveStreaming, users)
		baseOff := evaluate(v.Name, client.Baseline, client.OfflinePlayback, users)
		hOff := evaluate(v.Name, client.H, client.OfflinePlayback, users)
		t.Rows = append(t.Rows, []string{
			v.Name,
			f1(hLive.ComputeSavingPct(baseLive)), f1(hLive.DeviceSavingPct(baseLive)),
			f1(hOff.ComputeSavingPct(baseOff)), f1(hOff.DeviceSavingPct(baseOff)),
		})
	}
	return t
}

// Fig16 reproduces the SAS vs on-device head-motion-prediction comparison
// (§8.5): S+H, a perfect HMP with its DNN-accelerator overhead, and an
// ideal zero-overhead HMP.
func Fig16(users int) Table {
	t := Table{
		ID:     "Fig 16",
		Title:  "Device energy savings: S+H vs perfect on-device head-motion prediction",
		Header: []string{"video", "S+H", "perfect HMP", "HMP w/o overhead"},
		Notes: []string{
			"paper: S+H 29% beats perfect HMP 26% (predictor energy); zero-overhead HMP reaches 39%",
		},
	}
	acc := hmp.MobileAccelerator()
	model := hmp.SaliencyCNN()
	overhead := acc.PerFrameOverheadJ(model, 30)
	for _, v := range scene.EvalSet() {
		base := evaluate(v.Name, client.Baseline, client.OnlineStreaming, users)
		sh := evaluate(v.Name, client.SH, client.OnlineStreaming, users)
		hmpCfg := client.DefaultConfig(client.SH, client.OnlineStreaming)
		hmpCfg.ForceAllHits = true
		hmpCfg.ExtraComputeJPerFrame = overhead
		perfect := evaluateAt(1.0, v.Name, client.SH, client.OnlineStreaming, users, hmpCfg)
		idealCfg := client.DefaultConfig(client.SH, client.OnlineStreaming)
		idealCfg.ForceAllHits = true
		ideal := evaluateAt(1.0, v.Name, client.SH, client.OnlineStreaming, users, idealCfg)
		t.Rows = append(t.Rows, []string{
			v.Name,
			f1(sh.DeviceSavingPct(base)) + "%",
			f1(perfect.DeviceSavingPct(base)) + "%",
			f1(ideal.DeviceSavingPct(base)) + "%",
		})
	}
	return t
}

// MissRateTable reproduces the §8.2 FOV-miss statistics, with the per-user
// spread the paper's averages hide.
func MissRateTable(users int) Table {
	t := Table{
		ID:     "§8.2",
		Title:  "Per-frame FOV-miss rates under S+H",
		Header: []string{"video", "miss rate", "user min", "user max", "fov hits", "pt frames"},
		Notes: []string{
			"paper: average miss rate 7.7%, from 5.3% (Timelapse) to 12.0% (RS)",
		},
	}
	var sum float64
	for _, v := range scene.EvalSet() {
		sh := evaluate(v.Name, client.SH, client.OnlineStreaming, users)
		lo, hi := perUserMissRange(v.Name, users)
		t.Rows = append(t.Rows, []string{
			v.Name, pct(sh.MissRate()), pct(lo), pct(hi),
			fmt.Sprint(sh.FramesHit), fmt.Sprint(sh.FramesPT),
		})
		sum += sh.MissRate()
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured average: %.1f%%", 100*sum/float64(len(t.Rows))))
	return t
}

// perUserMissRange returns the lowest and highest per-user miss rate —
// Evaluate aggregates across the population, so the range simulates each
// user individually.
func perUserMissRange(video string, users int) (lo, hi float64) {
	sys := systemFor(1.0)
	plan, ok := sys.Plan(video)
	spec, okSpec := scene.ByName(video)
	if !ok || !okSpec {
		return 0, 0
	}
	cfg := client.DefaultConfig(client.SH, client.OnlineStreaming)
	lo = 1
	for u := 0; u < users; u++ {
		r, err := client.Simulate(spec, headtrace.Generate(spec, u), plan, cfg)
		if err != nil {
			panic(err)
		}
		m := r.MissRate()
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	return lo, hi
}
