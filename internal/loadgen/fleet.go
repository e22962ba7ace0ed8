package loadgen

import (
	"fmt"
	"sort"

	"evr/internal/client"
	"evr/internal/delivery"
	"evr/internal/fixed"
	"evr/internal/netsim"
	"evr/internal/scene"
	"evr/internal/telemetry"
)

// ClassSpec describes one client class of a load run's population: how
// many users it contributes, what they watch, and the device/delivery
// profile they run — projection (via the video spec), delivery mode, PTE
// bitwidth, client cache budget, and the modeled access link.
type ClassSpec struct {
	// Name labels the class in reports. Required, unique per run.
	Name string
	// Users is this class's session count per pass (≥ 1).
	Users int
	// Video names the catalog video this class plays; Spec overrides the
	// catalog lookup when its Name is non-empty (e.g. a projection variant
	// of a catalog video, or a video outside the catalog). The spec must
	// match what the target ingested, because head traces derive from it.
	Video string
	Spec  scene.VideoSpec
	// Delivery picks the class's delivery mode: "" plays the classic
	// FOV/orig player; a delivery.Mode word (delivery.ParseMode) runs the
	// tiled pipeline, pinned to that mode or, for "auto", left to the
	// per-segment policy. A class with a non-empty Delivery needs its video
	// ingested with tile streams.
	Delivery string
	// UseHAR renders FOV misses on the PTE accelerator; PTEFormat then
	// overrides the fixed-point bitwidth (zero = the default Q28.10).
	UseHAR    bool
	PTEFormat fixed.Format
	// CacheSegments bounds the client segment cache (0 = client default).
	CacheSegments int
	// Link names the modeled access-link class (netsim.ClassByName) the
	// tiled policy budgets against. "" = the 300 Mbps Wi-Fi default.
	Link string
	// ViewportScale overrides Config.ViewportScale for this class (0 =
	// inherit).
	ViewportScale int
}

// resolveSpec returns the video spec a class plays.
func (cs *ClassSpec) resolveSpec() (scene.VideoSpec, error) {
	if cs.Spec.Name != "" {
		return cs.Spec, nil
	}
	v, ok := scene.ByName(cs.Video)
	if !ok {
		return scene.VideoSpec{}, fmt.Errorf("loadgen: class %q: unknown video %q", cs.Name, cs.Video)
	}
	return v, nil
}

// ValidateClasses checks a population — at least one class, each named
// uniquely, with ≥ 1 user, a resolvable video, a delivery word, and a known
// link class — and returns its total user count.
func ValidateClasses(classes []ClassSpec) (int, error) {
	if len(classes) == 0 {
		return 0, fmt.Errorf("loadgen: at least one class required")
	}
	total := 0
	seen := make(map[string]bool, len(classes))
	for i := range classes {
		cs := &classes[i]
		if cs.Name == "" {
			return 0, fmt.Errorf("loadgen: class %d: Name required", i)
		}
		if seen[cs.Name] {
			return 0, fmt.Errorf("loadgen: duplicate class %q", cs.Name)
		}
		seen[cs.Name] = true
		if cs.Users < 1 {
			return 0, fmt.Errorf("loadgen: class %q: Users %d must be ≥ 1", cs.Name, cs.Users)
		}
		if cs.Delivery != "" {
			if _, err := delivery.ParseMode(cs.Delivery); err != nil {
				return 0, fmt.Errorf("loadgen: class %q: %w", cs.Name, err)
			}
		}
		if cs.Link != "" {
			if _, ok := netsim.ClassByName(cs.Link); !ok {
				return 0, fmt.Errorf("loadgen: class %q: unknown link class %q", cs.Name, cs.Link)
			}
		}
		if _, err := cs.resolveSpec(); err != nil {
			return 0, err
		}
		total += cs.Users
	}
	return total, nil
}

// tiledConfig is the one translation of a class's delivery word into the
// player's tiled config: nil for the classic FOV/orig pipeline.
// ValidateClasses has vetted the word.
func (cs *ClassSpec) tiledConfig() *client.TiledConfig {
	if cs.Delivery == "" {
		return nil
	}
	force, _ := delivery.ParseMode(cs.Delivery)
	tc := client.TiledConfig{Enabled: true, Force: force}
	if cs.Link != "" {
		tc.Link, _ = netsim.ClassByName(cs.Link)
	}
	return &tc
}

// ClassStats aggregates one class's sessions across every pass: the summed
// playback counters and ledger of its successful sessions, and its rates.
type ClassStats struct {
	client.PlaybackStats
	Name     string
	Users    int // sessions per pass
	Sessions int // total across passes
	Failures int
	HitRate  float64
	// Live freshness quantiles, from sessions that fetched at or past the
	// live edge (the maximum is PlaybackStats.BehindLiveMaxSec).
	BehindLiveP50Sec float64
	BehindLiveP99Sec float64
}

// fleetState is the per-run population bookkeeping: the user → class
// mapping and one behind-live histogram per class.
type fleetState struct {
	classes []ClassSpec
	byUser  []int // user index → class index
	behind  []*telemetry.Histogram
	specs   []scene.VideoSpec // resolved per class
}

// newFleetState expands the class list into per-user assignments, class
// by class in order — user IDs stay stable run to run, which the
// determinism gates lean on.
func newFleetState(classes []ClassSpec, totalUsers int) (*fleetState, error) {
	fs := &fleetState{
		classes: classes,
		byUser:  make([]int, 0, totalUsers),
		behind:  make([]*telemetry.Histogram, len(classes)),
		specs:   make([]scene.VideoSpec, len(classes)),
	}
	for ci := range classes {
		spec, err := classes[ci].resolveSpec()
		if err != nil {
			return nil, err
		}
		fs.specs[ci] = spec
		fs.behind[ci] = telemetry.NewHistogram(telemetry.DefaultLatencyBuckets())
		for u := 0; u < classes[ci].Users; u++ {
			fs.byUser = append(fs.byUser, ci)
		}
	}
	return fs, nil
}

// aggregateClasses folds every session result into per-class stats.
func aggregateClasses(fs *fleetState, results []UserResult) []ClassStats {
	out := make([]ClassStats, len(fs.classes))
	for ci := range fs.classes {
		out[ci].Name = fs.classes[ci].Name
		out[ci].Users = fs.classes[ci].Users
	}
	for _, r := range results {
		ci := fs.byUser[r.User]
		st := &out[ci]
		st.Sessions++
		if r.Err != nil {
			st.Failures++
			continue
		}
		st.Add(r.Stats)
	}
	for ci := range out {
		if out[ci].Frames > 0 {
			out[ci].HitRate = float64(out[ci].Hits) / float64(out[ci].Frames)
		}
		snap := fs.behind[ci].Snapshot()
		if snap.Count > 0 {
			out[ci].BehindLiveP50Sec = snap.Quantile(0.50)
			out[ci].BehindLiveP99Sec = snap.Quantile(0.99)
		}
	}
	return out
}

// classVideos lists the distinct videos a fleet plays, sorted.
func classVideos(fs *fleetState) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range fs.specs {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}
