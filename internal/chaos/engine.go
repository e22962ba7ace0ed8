package chaos

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"evr/internal/cluster"
	"evr/internal/loadgen"
	"evr/internal/server"
)

// Engine applies one scenario's fault schedule to a bound serving stack
// and builds the per-client fault transports. Bind whichever targets the
// scenario uses before the run; the zero fields are simply never faulted.
type Engine struct {
	sc *Scenario
	// Tier receives shard kills/restarts and slow-shard latency.
	Tier *cluster.Cluster
	// Live receives drop-publish holds.
	Live *server.LiveStream
	// Reingest republishes one VOD video (same spec, same bytes) — the
	// purge-propagation fault. Set by the driver that owns ingest.
	Reingest func(video string) error

	mu          sync.Mutex
	schedule    []string
	transports  []*faultTransport
	classByName map[string]*Class
}

// NewEngine builds an engine for a validated scenario.
func NewEngine(sc *Scenario) *Engine {
	byName := make(map[string]*Class, len(sc.Fleet))
	for i := range sc.Fleet {
		byName[sc.Fleet[i].Name] = &sc.Fleet[i]
	}
	return &Engine{sc: sc, classByName: byName}
}

// Prepare applies setup-time faults — drop-publish holds must land before
// the live publisher starts. Call after Bind-ing Live, before Start.
func (e *Engine) Prepare() {
	for _, f := range e.sc.Faults {
		if f.Type == FaultDropPublish && e.Live != nil {
			e.Live.DelayPublish(f.Seg, f.Intervals)
			e.logf("setup: drop-publish %s seg %d held %d interval(s)", e.sc.Live.Video, f.Seg, f.Intervals)
		}
	}
}

// OnPassStart applies every fault scheduled for this pass and resets the
// fault transports' attempt sequences so each pass replays the identical
// loss/jitter schedule. Wire it as loadgen's OnPassStart hook.
func (e *Engine) OnPassStart(pass int) {
	e.mu.Lock()
	transports := append([]*faultTransport(nil), e.transports...)
	e.mu.Unlock()
	for _, t := range transports {
		t.resetAttempts()
	}
	for _, f := range e.sc.Faults {
		if f.Pass != pass || f.Type == FaultDropPublish {
			continue
		}
		switch f.Type {
		case FaultKillShard:
			if e.Tier != nil {
				if err := e.Tier.KillShard(f.Shard); err == nil {
					e.logf("pass %d: kill-shard %d", pass, f.Shard)
				}
			}
		case FaultRestartShard:
			if e.Tier != nil {
				if err := e.Tier.RestartShard(f.Shard); err == nil {
					e.logf("pass %d: restart-shard %d", pass, f.Shard)
				}
			}
		case FaultSlowShard:
			d := time.Duration(f.DelayMs) * time.Millisecond
			if e.Tier != nil {
				e.Tier.Shard(f.Shard).SetStoreDelay(d)
			}
			e.logf("pass %d: slow-shard %d store delay %v", pass, f.Shard, d)
		case FaultReingest:
			if e.Reingest != nil {
				if err := e.Reingest(f.Video); err != nil {
					e.logf("pass %d: reingest %s FAILED: %v", pass, f.Video, err)
				} else {
					e.logf("pass %d: reingest %s", pass, f.Video)
				}
			}
		}
	}
}

// WrapTransport is loadgen's per-user transport hook: each user gets a
// fault transport seeded from (scenario seed, user) carrying their class's
// network profile. Users of classes with no injected faults keep the base
// transport untouched.
func (e *Engine) WrapTransport(user int, class string, base http.RoundTripper) http.RoundTripper {
	c := e.classByName[class]
	if c == nil || (c.Loss == 0 && c.Link == "" && len(c.LinkTrace) == 0) {
		return base
	}
	t := newFaultTransport(base, uint64(e.sc.Seed)^(uint64(user)*0x9e3779b97f4a7c15), c)
	e.mu.Lock()
	e.transports = append(e.transports, t)
	e.mu.Unlock()
	return t
}

// Schedule returns the human-readable fault log, in application order —
// the run-to-run comparison artifact the determinism gate hashes.
func (e *Engine) Schedule() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.schedule...)
}

func (e *Engine) logf(format string, args ...any) {
	e.mu.Lock()
	e.schedule = append(e.schedule, fmt.Sprintf(format, args...))
	e.mu.Unlock()
}

// GateResult is the survival verdict for one run.
type GateResult struct {
	Passed   bool
	Problems []string
}

// Evaluate runs the survival gates over a finished load report:
//
//  1. failed sessions ≤ SLO.MaxFailures;
//  2. per-user displayed-frame checksums identical across passes (chaos
//     must never change pixels — caches, kills, and retries are invisible
//     to the display);
//  3. per-class modeled stalls per session ≤ SLO.MaxStallsPerSession;
//  4. per-class p99 time-behind-live ≤ SLO.FreshnessP99Ms for classes
//     that fetched at the live edge.
func Evaluate(sc *Scenario, rep *loadgen.Report) GateResult {
	var problems []string

	if failures := rep.Failures(); len(failures) > sc.SLO.MaxFailures {
		msgs := ""
		for i, f := range failures {
			if i == 3 {
				msgs += "; ..."
				break
			}
			if i > 0 {
				msgs += "; "
			}
			msgs += fmt.Sprintf("user %d pass %d: %v", f.User, f.Pass, f.Err)
		}
		problems = append(problems, fmt.Sprintf("%d session failures > budget %d (%s)", len(failures), sc.SLO.MaxFailures, msgs))
	}

	// Checksum gate: every successful session of a user must display the
	// same pixels regardless of which pass (and which fault mix) it ran
	// under.
	byUser := make(map[int]map[uint64][]int)
	for _, r := range rep.Results {
		if r.Err != nil {
			continue
		}
		if byUser[r.User] == nil {
			byUser[r.User] = make(map[uint64][]int)
		}
		byUser[r.User][r.Checksum] = append(byUser[r.User][r.Checksum], r.Pass)
	}
	var divergent []int
	for user, sums := range byUser {
		if len(sums) > 1 {
			divergent = append(divergent, user)
		}
	}
	sort.Ints(divergent)
	for _, user := range divergent {
		problems = append(problems, fmt.Sprintf("user %d checksum diverged across passes: %v", user, byUser[user]))
	}

	for _, cs := range rep.Classes {
		ok := cs.Sessions - cs.Failures
		if sc.SLO.MaxStallsPerSession > 0 && ok > 0 {
			if per := float64(cs.ModeledStalls) / float64(ok); per > sc.SLO.MaxStallsPerSession {
				problems = append(problems, fmt.Sprintf("class %s: %.2f stalls/session > budget %.2f", cs.Name, per, sc.SLO.MaxStallsPerSession))
			}
		}
		if sc.SLO.FreshnessP99Ms > 0 && cs.LiveSegments > 0 {
			if p99 := cs.BehindLiveP99Sec * 1000; p99 > float64(sc.SLO.FreshnessP99Ms) {
				problems = append(problems, fmt.Sprintf("class %s: behind-live p99 %.0fms > budget %dms", cs.Name, p99, sc.SLO.FreshnessP99Ms))
			}
		}
	}

	return GateResult{Passed: len(problems) == 0, Problems: problems}
}
