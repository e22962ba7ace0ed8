package main

import (
	"fmt"
	"io"
	"log"
	"time"

	"evr/internal/chaos"
	"evr/internal/client"
	"evr/internal/cluster"
	"evr/internal/loadgen"
	"evr/internal/scene"
	"evr/internal/server"
)

// chaosRun is one full scenario execution's comparable outcome: the fault
// schedule as applied and every session's displayed-frame checksum. Two
// same-seed runs must produce identical chaosRuns — the determinism gate
// -chaos-runs ≥ 2 enforces.
type chaosRun struct {
	schedule  []string
	checksums map[[2]int]uint64 // (user, pass) → checksum
	report    *loadgen.Report
	gate      chaos.GateResult
}

// chaosIngestPlan is one distinct video's ingest recipe under a scenario.
type chaosIngestPlan struct {
	spec scene.VideoSpec
	cfg  server.IngestConfig
	live bool
}

// chaosPlans maps each distinct fleet video to its ingest recipe.
func chaosPlans(sc *chaos.Scenario) (map[string]*chaosIngestPlan, error) {
	plans := make(map[string]*chaosIngestPlan)
	for _, c := range sc.Fleet {
		plan, ok := plans[c.Video]
		if !ok {
			spec, ok := scene.ByName(c.Video)
			if !ok {
				return nil, fmt.Errorf("unknown video %q", c.Video)
			}
			cfg := server.DefaultIngestConfig()
			if sc.Width > 0 {
				cfg.FullW = sc.Width - sc.Width%8
				cfg.FullH = cfg.FullW / 2
			}
			cfg.MaxSegments = sc.Segments
			proj, err := c.ProjectionMethod()
			if err != nil {
				return nil, err
			}
			cfg.Projection = proj
			plan = &chaosIngestPlan{spec: spec, cfg: cfg}
			plans[c.Video] = plan
		}
		// A class needs tile streams iff it names a delivery mode.
		if c.Delivery != "" {
			plan.cfg.Tiled = true
		}
	}
	if sc.Live != nil {
		plan, ok := plans[sc.Live.Video]
		if !ok {
			return nil, fmt.Errorf("live video %q not played by any class", sc.Live.Video)
		}
		plan.live = true
		plan.cfg.Live = &server.LiveOptions{
			SegmentInterval: time.Duration(sc.Live.IntervalMs) * time.Millisecond,
			QueueDepth:      sc.Live.QueueDepth,
		}
	}
	return plans, nil
}

// runChaosOnce builds a fresh serving stack for the scenario, applies the
// fault schedule through one engine, runs the fleet, and evaluates the
// survival gates.
func runChaosOnce(sc *chaos.Scenario, w io.Writer) (*chaosRun, error) {
	plans, err := chaosPlans(sc)
	if err != nil {
		return nil, err
	}

	opts := server.DefaultServiceOptions()
	if sc.RespCacheMiB > 0 {
		opts.RespCacheBytes = int64(sc.RespCacheMiB) << 20
	}

	copts := cluster.Options{Shards: sc.Shards, Shard: opts}
	if sc.EdgeCacheMiB > 0 {
		copts.EdgeCacheBytes = int64(sc.EdgeCacheMiB) << 20
	}
	tier, err := cluster.New(nil, copts)
	if err != nil {
		return nil, err
	}
	engine := chaos.NewEngine(sc)
	engine.Tier = tier
	baseURL, shutdown, err := loadgen.ServeHandler(tier.Handler())
	if err != nil {
		return nil, err
	}
	defer shutdown()

	// Batch-ingest every VOD video; the live video goes through the live
	// pipeline below instead.
	batchIngest := func(video string) error {
		plan := plans[video]
		_, err := tier.Ingest(plan.spec, plan.cfg)
		return err
	}
	for video, plan := range plans {
		if plan.live {
			continue
		}
		if err := batchIngest(video); err != nil {
			return nil, fmt.Errorf("ingesting %s: %v", video, err)
		}
	}
	engine.Reingest = func(video string) error {
		if plan, ok := plans[video]; !ok || plan.live {
			return fmt.Errorf("cannot reingest %q", video)
		}
		return batchIngest(video)
	}

	var ls *server.LiveStream
	if sc.Live != nil {
		plan := plans[sc.Live.Video]
		ls, err = server.NewLiveStream(plan.spec, plan.cfg, tier.Store())
		if err != nil {
			return nil, fmt.Errorf("live stream: %v", err)
		}
		tier.ServeLive(ls)
		engine.Live = ls
	}
	engine.Prepare()

	fetch := client.DefaultFetchConfig()
	cfg := loadgen.Config{
		BaseURL:       baseURL,
		Passes:        sc.Passes,
		Segments:      sc.Segments,
		ViewportScale: sc.ViewportScale,
		Fetch:         &fetch,
		Classes:       sc.FleetSpecs(),
		WrapTransport: engine.WrapTransport,
		OnPassStart:   engine.OnPassStart,
		Tier:          tier,
	}

	if ls != nil {
		if err := ls.Start(); err != nil {
			return nil, err
		}
	}
	rep, err := loadgen.Run(cfg)
	if err != nil {
		return nil, err
	}
	if ls != nil {
		<-ls.Done()
		if err := ls.Wait(); err != nil {
			return nil, fmt.Errorf("live stream: %v", err)
		}
	}

	run := &chaosRun{
		schedule:  engine.Schedule(),
		checksums: make(map[[2]int]uint64),
		report:    rep,
		gate:      chaos.Evaluate(sc, rep),
	}
	for _, r := range rep.Results {
		if r.Err == nil {
			run.checksums[[2]int{r.User, r.Pass}] = r.Checksum
		}
	}
	rep.WriteText(w, false)
	for _, line := range run.schedule {
		fmt.Fprintf(w, "chaos: %s\n", line)
	}
	return run, nil
}

// runChaos executes the scenario `runs` times (fresh stack each run) and
// prints the survival verdict. Beyond the per-run SLO gates, multiple runs
// must agree exactly — same fault schedule, same per-(user,pass)
// checksums — or the harness itself is nondeterministic. Returns false
// when any gate failed.
func runChaos(sc *chaos.Scenario, runs int, w io.Writer) bool {
	if runs < 1 {
		runs = 1
	}
	var first *chaosRun
	passed := true
	for i := 1; i <= runs; i++ {
		fmt.Fprintf(w, "=== chaos %s: run %d/%d (seed %d) ===\n", sc.Name, i, runs, sc.Seed)
		run, err := runChaosOnce(sc, w)
		if err != nil {
			log.Printf("chaos run %d: %v", i, err)
			return false
		}
		if !run.gate.Passed {
			passed = false
			for _, p := range run.gate.Problems {
				fmt.Fprintf(w, "chaos: GATE FAILED: %s\n", p)
			}
		}
		if first == nil {
			first = run
			continue
		}
		if diff := diffRuns(first, run); diff != "" {
			passed = false
			fmt.Fprintf(w, "chaos: DETERMINISM FAILED (run 1 vs %d): %s\n", i, diff)
		}
	}
	if passed {
		fmt.Fprintf(w, "chaos %s: SURVIVED — %d run(s), %d sessions each, schedules and checksums identical, SLOs met\n",
			sc.Name, runs, len(first.report.Results))
	}
	return passed
}

// diffRuns compares two runs' fault schedules and checksum maps, returning
// "" when identical.
func diffRuns(a, b *chaosRun) string {
	if len(a.schedule) != len(b.schedule) {
		return fmt.Sprintf("schedule length %d vs %d", len(a.schedule), len(b.schedule))
	}
	for i := range a.schedule {
		if a.schedule[i] != b.schedule[i] {
			return fmt.Sprintf("schedule[%d]: %q vs %q", i, a.schedule[i], b.schedule[i])
		}
	}
	if len(a.checksums) != len(b.checksums) {
		return fmt.Sprintf("%d vs %d successful sessions", len(a.checksums), len(b.checksums))
	}
	for key, sum := range a.checksums {
		if other, ok := b.checksums[key]; !ok || other != sum {
			return fmt.Sprintf("user %d pass %d: checksum %#x vs %#x", key[0], key[1], sum, other)
		}
	}
	return ""
}
