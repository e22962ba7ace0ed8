package loadgen

import (
	"math"
	"net/http"
	"sync"
	"testing"

	"evr/internal/cluster"
	"evr/internal/delivery"
	"evr/internal/server"
)

// TestFleetClassesRunAndAggregate is the heterogeneous-fleet gate: a run
// assigns users to classes in declaration order, threads
// each user's class through WrapTransport, and reports per-class stats
// whose totals reconcile with the flat results.
// classNamed returns the named class stats from a report.
func classNamed(rep *Report, name string) (ClassStats, bool) {
	for _, cs := range rep.Classes {
		if cs.Name == name {
			return cs, true
		}
	}
	return ClassStats{}, false
}

func TestFleetClassesRunAndAggregate(t *testing.T) {
	// A 5° margin per side over the HMD's 110° makes gaze jitter miss the
	// FOV video, so both classes render, and price, PT frames.
	ingest := soakIngest()
	ingest.FOVXDeg, ingest.FOVYDeg = 120, 120
	tier, err := cluster.New(nil, cluster.Options{Shard: server.DefaultServiceOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tier.Ingest(soakSpec(), ingest); err != nil {
		t.Fatal(err)
	}
	baseURL, shutdown, err := ServeHandler(tier.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	var mu sync.Mutex
	wrapped := map[int]string{}
	rep, err := Run(Config{
		BaseURL:       baseURL,
		Passes:        2,
		ViewportScale: 32,
		Tier:          tier,
		Classes: []ClassSpec{
			{Name: "har-fov", Users: 2, Video: "SOAK", Spec: soakSpec(), UseHAR: true, CacheSegments: 4},
			{Name: "sw-orig", Users: 3, Video: "SOAK", Spec: soakSpec(), Link: "dsl20"},
		},
		WrapTransport: func(user int, class string, base http.RoundTripper) http.RoundTripper {
			mu.Lock()
			wrapped[user] = class
			mu.Unlock()
			return base
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fails := rep.Failures(); len(fails) != 0 {
		t.Fatalf("%d sessions failed, first: %v", len(fails), fails[0].Err)
	}
	if len(rep.Results) != 5*2 {
		t.Fatalf("got %d results, want 10", len(rep.Results))
	}

	// Declaration-order assignment: users 0–1 are har-fov, 2–4 sw-orig.
	for _, r := range rep.Results {
		want := "har-fov"
		if r.User >= 2 {
			want = "sw-orig"
		}
		if r.Class != want {
			t.Errorf("user %d labeled class %q, want %q", r.User, r.Class, want)
		}
	}
	mu.Lock()
	for user, class := range wrapped {
		want := "har-fov"
		if user >= 2 {
			want = "sw-orig"
		}
		if class != want {
			t.Errorf("WrapTransport saw user %d as %q, want %q", user, class, want)
		}
	}
	nWrapped := len(wrapped)
	mu.Unlock()
	if nWrapped != 5 {
		t.Errorf("WrapTransport called for %d users, want 5", nWrapped)
	}

	if len(rep.Classes) != 2 {
		t.Fatalf("report has %d classes, want 2", len(rep.Classes))
	}
	har, ok := classNamed(rep, "har-fov")
	if !ok || har.Users != 2 || har.Sessions != 4 {
		t.Errorf("har-fov stats: ok=%v users=%d sessions=%d, want 2 users × 2 passes", ok, har.Users, har.Sessions)
	}
	sw, ok := classNamed(rep, "sw-orig")
	if !ok || sw.Users != 3 || sw.Sessions != 6 {
		t.Errorf("sw-orig stats: ok=%v users=%d sessions=%d, want 3 users × 2 passes", ok, sw.Users, sw.Sessions)
	}
	var frames, bytes int
	for _, r := range rep.Results {
		frames += r.Stats.Frames
		bytes += int(r.Stats.BytesFetched)
	}
	if got := har.Frames + sw.Frames; got != frames {
		t.Errorf("class frames sum %d != flat sum %d", got, frames)
	}
	if got := int(har.BytesFetched + sw.BytesFetched); got != bytes {
		t.Errorf("class bytes sum %d != flat sum %d", got, bytes)
	}
	// A class's ledger is its sessions' ledgers summed.
	sessionJ := map[string]float64{}
	for _, r := range rep.Results {
		sessionJ[r.Class] += r.Stats.Ledger.Total()
	}
	for _, cs := range []ClassStats{har, sw} {
		if got, want := cs.Ledger.Total(), sessionJ[cs.Name]; want <= 0 || math.Abs(got-want) > 1e-12*want {
			t.Errorf("%s: class ledger %.9gJ, sessions sum to %.9gJ", cs.Name, got, want)
		}
	}
	// The players price PT by engine: a PTE frame costs an order of
	// magnitude less PT compute than a float (GPU-priced) frame, so under
	// half is a margin no summation rounding can fake.
	harPT, swPT := har.PTEFrames, sw.Misses-sw.FrozenFrames
	if harPT == 0 || swPT == 0 {
		t.Fatalf("no PT frames to price: har %d, sw %d", harPT, swPT)
	}
	if perHar, perSw := har.PTComputeJ/float64(harPT), sw.PTComputeJ/float64(swPT); perHar >= perSw/2 {
		t.Errorf("PT compute per frame: har %.4gJ not below half of sw-orig's %.4gJ", perHar, perSw)
	}
	if sw.LiveSegments != 0 || sw.BehindLiveP99Sec != 0 {
		t.Errorf("VOD class reported live freshness: %d segs p99 %.3fs", sw.LiveSegments, sw.BehindLiveP99Sec)
	}

	// Per-user determinism holds inside a fleet too.
	byUser := map[int]map[int]uint64{}
	for _, r := range rep.Results {
		if byUser[r.User] == nil {
			byUser[r.User] = map[int]uint64{}
		}
		byUser[r.User][r.Pass] = r.Checksum
	}
	for u := 0; u < 5; u++ {
		if byUser[u][1] != byUser[u][2] || byUser[u][1] == 0 {
			t.Errorf("user %d checksums: pass1 %#x pass2 %#x", u, byUser[u][1], byUser[u][2])
		}
	}
}

// TestFleetValidation pins the fleet config gate.
func TestFleetValidation(t *testing.T) {
	cases := []struct {
		name    string
		classes []ClassSpec
	}{
		{"no classes", nil},
		{"missing name", []ClassSpec{{Users: 1, Video: "RS"}}},
		{"dup name", []ClassSpec{{Name: "a", Users: 1, Video: "RS"}, {Name: "a", Users: 1, Video: "RS"}}},
		{"zero users", []ClassSpec{{Name: "a", Users: 0, Video: "RS"}}},
		{"bad delivery", []ClassSpec{{Name: "a", Users: 1, Video: "RS", Delivery: "warp"}}},
		{"bad link", []ClassSpec{{Name: "a", Users: 1, Video: "RS", Link: "smoke-signal"}}},
		{"bad video", []ClassSpec{{Name: "a", Users: 1, Video: "NOPE"}}},
	}
	for _, tc := range cases {
		if _, err := ValidateClasses(tc.classes); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := Run(Config{Classes: []ClassSpec{{Name: "a", Users: 1, Video: "RS"}}}); err == nil {
		t.Error("fleet run without BaseURL accepted")
	}
	total, err := ValidateClasses([]ClassSpec{
		{Name: "a", Users: 2, Video: "RS"},
		{Name: "b", Users: 3, Video: "Paris", Delivery: delivery.ModeAuto.String(), Link: "lte50"},
		{Name: "c", Users: 1, Video: "NYC", Delivery: delivery.ModeOrig.String()},
	})
	if err != nil || total != 6 {
		t.Errorf("valid fleet rejected: total=%d err=%v", total, err)
	}
}
