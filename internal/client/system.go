package client

import (
	"fmt"
	"runtime"
	"sync"

	"evr/internal/headtrace"
	"evr/internal/sas"
	"evr/internal/scene"
)

// System assembles the complete EVR system (§4): the cloud component
// (semantic ingest analysis, one prepared SAS plan per video) and the client
// device (energy-accounted playback under any variant/use-case), plus the
// aggregation used by every energy figure in the evaluation — per-video
// results merged over the 59-user trace corpus.
type System struct {
	SASConfig sas.Config

	mu    sync.RWMutex
	plans map[string]*sas.Plan
	specs map[string]scene.VideoSpec
}

// NewSystem returns a system with the paper's default design point.
func NewSystem() *System {
	return &System{
		SASConfig: sas.DefaultConfig(),
		plans:     make(map[string]*sas.Plan),
		specs:     make(map[string]scene.VideoSpec),
	}
}

// Prepare runs the ingest analysis for a video (the cloud side of Fig. 4)
// and caches its SAS plan.
func (s *System) Prepare(v scene.VideoSpec) error {
	plan, err := sas.BuildPlan(v, s.SASConfig)
	if err != nil {
		return fmt.Errorf("client: preparing %s: %w", v.Name, err)
	}
	s.mu.Lock()
	s.plans[v.Name] = plan
	s.specs[v.Name] = v
	s.mu.Unlock()
	return nil
}

// Plan returns the prepared plan for a video.
func (s *System) Plan(video string) (*sas.Plan, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.plans[video]
	return p, ok
}

// Summary is the playback Result merged over a user population (in user
// order, so float accumulation is deterministic), labelled with what was
// played. Result's fields and ratios (MissRate, FPSDropPct,
// BandwidthSavingPct) are promoted.
type Summary struct {
	Video   string
	Variant Variant
	UseCase UseCase
	Users   int

	Result
}

// ComputeSavingPct returns this summary's compute+memory energy saving
// relative to a baseline summary.
func (s Summary) ComputeSavingPct(baseline Summary) float64 {
	b := baseline.ComputeMemoryJ()
	if b == 0 {
		return 0
	}
	return 100 * (1 - s.ComputeMemoryJ()/b)
}

// DeviceSavingPct returns the total device energy saving vs a baseline.
func (s Summary) DeviceSavingPct(baseline Summary) float64 {
	b := baseline.Ledger.Total()
	if b == 0 {
		return 0
	}
	return 100 * (1 - s.Ledger.Total()/b)
}

// EvaluateOptions tunes an evaluation run.
type EvaluateOptions struct {
	Users  int    // traces to simulate (default: headtrace.DatasetUsers)
	Config Config // what the device plays; Variant and UseCase come from Evaluate's arguments
}

// Evaluate plays a prepared video for a user population under the given
// variant/use-case and returns the merged summary.
func (s *System) Evaluate(video string, variant Variant, uc UseCase, opts EvaluateOptions) (Summary, error) {
	s.mu.RLock()
	plan, ok := s.plans[video]
	spec, okSpec := s.specs[video]
	s.mu.RUnlock()
	if !ok || !okSpec {
		return Summary{}, fmt.Errorf("client: video %q not prepared", video)
	}
	users := opts.Users
	if users <= 0 {
		users = headtrace.DatasetUsers
	}
	cfg := opts.Config
	cfg.Variant = variant
	cfg.UseCase = uc
	if err := cfg.Validate(); err != nil {
		return Summary{}, fmt.Errorf("client: simulating %s: %w", video, err)
	}

	// Users are independent: simulate them concurrently, then merge in
	// user order so float accumulation stays deterministic.
	results := make([]Result, users)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for u := 0; u < users; u++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(u int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[u], _ = Simulate(spec, headtrace.Generate(spec, u), plan, cfg) // cfg is valid
		}(u)
	}
	wg.Wait()

	sum := Summary{Video: video, Variant: variant, UseCase: uc, Users: users}
	for _, r := range results {
		sum.Add(r)
	}
	return sum, nil
}
