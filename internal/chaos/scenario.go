// Package chaos is the fault-injection harness for the EVR serving path:
// deterministic, seeded fault schedules — per-client bandwidth, loss, and
// jitter; server-side slow shards and re-ingests; mid-run shard kills and
// restarts — driven against a live or VOD serving stack under a
// heterogeneous client fleet, with survival gates that decide pass/fail
// from the load report: zero checksum divergence, bounded failures, and
// freshness/stall SLOs.
//
// Everything is derived from a Scenario (a JSON-serializable document) and
// its seed: two runs of the same scenario produce identical fault
// schedules and identical per-user displayed-frame checksums, which is
// what lets a chaos run double as a regression gate.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"evr/internal/fixed"
	"evr/internal/loadgen"
	"evr/internal/netsim"
	"evr/internal/projection"
	"evr/internal/scene"
)

// Fault types.
const (
	FaultKillShard    = "kill-shard"    // take a shard off the ring at a pass start
	FaultRestartShard = "restart-shard" // bring a killed shard back at a pass start
	FaultSlowShard    = "slow-shard"    // add synthetic store latency to a shard
	FaultReingest     = "reingest"      // republish a VOD video mid-run
	FaultDropPublish  = "drop-publish"  // hold a live segment past its due time
)

// Scenario is one chaos run: the serving topology, the live stream, the
// client fleet, the seeded fault schedule, and the survival SLOs.
type Scenario struct {
	Name string `json:"name"`
	// Seed drives every pseudo-random decision (loss, jitter). Two runs
	// with the same seed produce identical fault schedules.
	Seed   int64 `json:"seed"`
	Passes int   `json:"passes"`
	// Segments bounds each playback; 0 = all segments.
	Segments int `json:"segments,omitempty"`
	// Width is the panoramic ingest width (0 = 192; height = width/2).
	Width int `json:"width,omitempty"`
	// ViewportScale shrinks rendered viewports (0 = player default).
	ViewportScale int `json:"viewportScale,omitempty"`
	// Shards is the serving tier's topology, as cluster.Options.Shards
	// reads it: 0 = one server, no router; N ≥ 1 = N shards behind the
	// router. Shard faults require ≥ 2.
	Shards int `json:"shards,omitempty"`
	// EdgeCacheMiB / RespCacheMiB bound the router edge cache and the
	// per-shard response caches (0 = defaults).
	EdgeCacheMiB int `json:"edgeCacheMiB,omitempty"`
	RespCacheMiB int `json:"respCacheMiB,omitempty"`
	// Live, when set, ingests one video on a live schedule while serving.
	Live   *LiveSpec `json:"live,omitempty"`
	Fleet  []Class   `json:"fleet"`
	Faults []Fault   `json:"faults,omitempty"`
	SLO    SLO       `json:"slo"`
}

// LiveSpec configures the live stream of a scenario.
type LiveSpec struct {
	// Video names the catalog video ingested live (orig-only).
	Video string `json:"video"`
	// IntervalMs is the wall-clock publish cadence (0 = content time).
	IntervalMs int `json:"intervalMs,omitempty"`
	// QueueDepth bounds the producer→publisher pipeline (0 = 2).
	QueueDepth int `json:"queueDepth,omitempty"`
}

// Class is one heterogeneous-fleet client class plus its injected network
// profile.
type Class struct {
	Name  string `json:"name"`
	Users int    `json:"users"`
	Video string `json:"video"`
	// Projection picks the ingest projection for this class's video:
	// "erp" (default), "cmp", or "eac" (ProjectionMethod). Classes sharing
	// a video must share a projection — a video is ingested exactly once.
	Projection string `json:"projection,omitempty"`
	// Delivery is the class's loadgen delivery mode (ClassSpec.Delivery):
	// "" for the classic FOV/orig player, or a delivery.Mode word for the
	// tiled pipeline, whose video is then ingested with tile streams.
	Delivery string `json:"delivery,omitempty"`
	// HAR renders FOV misses on the PTE; PTETotalBits/PTEIntBits override
	// the fixed-point format (both zero = default Q28.10).
	HAR          bool `json:"har,omitempty"`
	PTETotalBits int  `json:"pteTotalBits,omitempty"`
	PTEIntBits   int  `json:"pteIntBits,omitempty"`
	// CacheSegments bounds the client segment cache (0 = default).
	CacheSegments int `json:"cacheSegments,omitempty"`
	// Link names the netsim link class injected on this class's wire
	// (delay, loss, jitter) and budgeted against by tiled delivery.
	Link string `json:"link,omitempty"`
	// LinkTrace, when non-empty, varies the link per segment index
	// (cyclic) instead of holding Link constant.
	LinkTrace []string `json:"linkTrace,omitempty"`
	// Loss adds packet loss on top of the link class's own loss rate
	// (the larger of the two applies). In [0, 1).
	Loss float64 `json:"loss,omitempty"`
}

// Fault is one scheduled fault.
type Fault struct {
	Type string `json:"type"`
	// Pass schedules pass-scoped faults (kill/restart/slow/reingest):
	// they apply just before that pass's sessions launch.
	Pass int `json:"pass,omitempty"`
	// Shard targets shard faults.
	Shard int `json:"shard,omitempty"`
	// Video targets reingest faults.
	Video string `json:"video,omitempty"`
	// Seg and Intervals configure drop-publish: the live publisher holds
	// segment Seg for Intervals extra publish intervals.
	Seg       int `json:"seg,omitempty"`
	Intervals int `json:"intervals,omitempty"`
	// DelayMs is the synthetic store latency slow-shard injects.
	DelayMs int `json:"delayMs,omitempty"`
}

// SLO is the survival gate: the run passes only if every bound holds (and
// per-user checksums never diverge across passes — that gate is implicit).
type SLO struct {
	// MaxFailures bounds failed sessions across the whole run.
	MaxFailures int `json:"maxFailures"`
	// MaxStallsPerSession bounds modeled rebuffer events per successful
	// session, per class (0 = not gated).
	MaxStallsPerSession float64 `json:"maxStallsPerSession,omitempty"`
	// FreshnessP99Ms bounds each live class's p99 time-behind-live
	// (0 = not gated).
	FreshnessP99Ms int `json:"freshnessP99Ms,omitempty"`
}

// ProjectionMethod is the ingest projection the class's Projection word
// names: a projection.Methods name in lower case, or "" for ERP.
func (c *Class) ProjectionMethod() (projection.Method, error) {
	if c.Projection == "" {
		return projection.ERP, nil
	}
	for _, m := range projection.Methods {
		if c.Projection == strings.ToLower(m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("chaos: class %q: unknown projection %q (erp, cmp, eac)", c.Name, c.Projection)
}

// Validate rejects structurally unusable scenarios. The fleet's class
// basics (names, users, videos, delivery words, link classes) are
// loadgen.ValidateClasses's; the checks here are the ones only a scenario
// has.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("chaos: scenario name required")
	}
	if sc.Passes < 1 {
		return fmt.Errorf("chaos: passes %d must be ≥ 1", sc.Passes)
	}
	if sc.Segments < 0 {
		return fmt.Errorf("chaos: segments %d must be ≥ 0", sc.Segments)
	}
	if sc.Width != 0 && (sc.Width < 16 || sc.Width > 4096) {
		return fmt.Errorf("chaos: width %d out of range [16,4096]", sc.Width)
	}
	if sc.ViewportScale < 0 {
		return fmt.Errorf("chaos: viewportScale %d must be ≥ 0", sc.ViewportScale)
	}
	if sc.Shards < 0 || sc.Shards > 64 {
		return fmt.Errorf("chaos: shards %d out of range [0,64]", sc.Shards)
	}
	if sc.EdgeCacheMiB < 0 || sc.RespCacheMiB < 0 {
		return fmt.Errorf("chaos: cache budgets must be ≥ 0")
	}
	if _, err := loadgen.ValidateClasses(sc.FleetSpecs()); err != nil {
		return err
	}
	liveVideo := ""
	if sc.Live != nil {
		if sc.Live.Video == "" {
			return fmt.Errorf("chaos: live.video required")
		}
		if _, ok := scene.ByName(sc.Live.Video); !ok {
			return fmt.Errorf("chaos: live.video %q not in the catalog", sc.Live.Video)
		}
		if sc.Live.IntervalMs < 0 || sc.Live.QueueDepth < 0 {
			return fmt.Errorf("chaos: live interval and queue depth must be ≥ 0")
		}
		liveVideo = sc.Live.Video
	}
	videoProj := make(map[string]projection.Method)
	for i := range sc.Fleet {
		c := &sc.Fleet[i]
		proj, err := c.ProjectionMethod()
		if err != nil {
			return err
		}
		if prev, ok := videoProj[c.Video]; ok && prev != proj {
			return fmt.Errorf("chaos: video %q ingested with both projection %v and %v — classes sharing a video must share its projection", c.Video, prev, proj)
		}
		videoProj[c.Video] = proj
		if c.Video == liveVideo && c.Delivery != "" {
			return fmt.Errorf("chaos: class %q: live video %q is orig-only, delivery %q needs tile streams", c.Name, c.Video, c.Delivery)
		}
		if (c.PTETotalBits != 0) != (c.PTEIntBits != 0) {
			return fmt.Errorf("chaos: class %q: pteTotalBits and pteIntBits must be set together", c.Name)
		}
		if c.PTETotalBits != 0 {
			f := fixed.Format{TotalBits: c.PTETotalBits, IntBits: c.PTEIntBits}
			if err := f.Validate(); err != nil {
				return fmt.Errorf("chaos: class %q: %w", c.Name, err)
			}
		}
		if c.CacheSegments < 0 {
			return fmt.Errorf("chaos: class %q: cacheSegments %d must be ≥ 0", c.Name, c.CacheSegments)
		}
		for _, name := range c.LinkTrace {
			if _, ok := netsim.ClassByName(name); !ok {
				return fmt.Errorf("chaos: class %q: unknown link class %q in trace", c.Name, name)
			}
		}
		if c.Loss < 0 || c.Loss >= 1 {
			return fmt.Errorf("chaos: class %q: loss %v out of range [0,1)", c.Name, c.Loss)
		}
	}
	for i := range sc.Faults {
		f := &sc.Faults[i]
		switch f.Type {
		case FaultKillShard, FaultRestartShard, FaultSlowShard:
			if sc.Shards < 2 {
				return fmt.Errorf("chaos: fault %d (%s): needs shards ≥ 2", i, f.Type)
			}
			if f.Shard < 0 || f.Shard >= sc.Shards {
				return fmt.Errorf("chaos: fault %d (%s): shard %d out of range [0,%d)", i, f.Type, f.Shard, sc.Shards)
			}
			if f.Pass < 1 || f.Pass > sc.Passes {
				return fmt.Errorf("chaos: fault %d (%s): pass %d out of range [1,%d]", i, f.Type, f.Pass, sc.Passes)
			}
			if f.Type == FaultSlowShard && f.DelayMs <= 0 {
				return fmt.Errorf("chaos: fault %d (slow-shard): delayMs %d must be > 0", i, f.DelayMs)
			}
		case FaultReingest:
			if f.Pass < 1 || f.Pass > sc.Passes {
				return fmt.Errorf("chaos: fault %d (reingest): pass %d out of range [1,%d]", i, f.Pass, sc.Passes)
			}
			if _, ok := videoProj[f.Video]; !ok {
				return fmt.Errorf("chaos: fault %d (reingest): video %q not played by any class", i, f.Video)
			}
			if f.Video == liveVideo {
				return fmt.Errorf("chaos: fault %d: cannot reingest the live video %q (use drop-publish)", i, f.Video)
			}
		case FaultDropPublish:
			if sc.Live == nil {
				return fmt.Errorf("chaos: fault %d (drop-publish): scenario has no live stream", i)
			}
			if f.Seg < 0 {
				return fmt.Errorf("chaos: fault %d (drop-publish): seg %d must be ≥ 0", i, f.Seg)
			}
			if f.Intervals < 1 {
				return fmt.Errorf("chaos: fault %d (drop-publish): intervals %d must be ≥ 1", i, f.Intervals)
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown type %q", i, f.Type)
		}
	}
	if sc.SLO.MaxFailures < 0 || sc.SLO.MaxStallsPerSession < 0 || sc.SLO.FreshnessP99Ms < 0 {
		return fmt.Errorf("chaos: SLO bounds must be ≥ 0")
	}
	return nil
}

// FleetSpecs translates the scenario fleet into loadgen class specs.
func (sc *Scenario) FleetSpecs() []loadgen.ClassSpec {
	out := make([]loadgen.ClassSpec, len(sc.Fleet))
	for i, c := range sc.Fleet {
		cs := loadgen.ClassSpec{
			Name:          c.Name,
			Users:         c.Users,
			Video:         c.Video,
			Delivery:      c.Delivery,
			UseHAR:        c.HAR,
			CacheSegments: c.CacheSegments,
			Link:          c.Link,
		}
		if c.PTETotalBits != 0 {
			cs.PTEFormat = fixed.Format{TotalBits: c.PTETotalBits, IntBits: c.PTEIntBits}
		}
		out[i] = cs
	}
	return out
}

// Load reads a scenario: a builtin name first, then a JSON file path.
func Load(nameOrPath string) (*Scenario, error) {
	if sc, ok := Builtin(nameOrPath); ok {
		return sc, nil
	}
	raw, err := os.ReadFile(nameOrPath)
	if err != nil {
		return nil, fmt.Errorf("chaos: scenario %q is neither a builtin (%v) nor a readable file: %w", nameOrPath, BuiltinNames(), err)
	}
	var sc Scenario
	if err := json.Unmarshal(raw, &sc); err != nil {
		return nil, fmt.Errorf("chaos: parsing %s: %w", nameOrPath, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}
