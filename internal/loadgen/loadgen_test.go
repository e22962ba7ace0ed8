package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"evr/internal/client"
	"evr/internal/cluster"
	"evr/internal/scene"
	"evr/internal/server"
)

// soakSpec is a tiny deterministic video: 2 segments of 30 frames with one
// slowly-drifting object, cheap enough to ingest and replay under -race.
func soakSpec() scene.VideoSpec {
	return scene.VideoSpec{
		Name:     "SOAK",
		Duration: 2,
		FPS:      30,
		Objects: []scene.ObjectSpec{{
			ID: 0, BaseYaw: 0.3, BasePitch: 0.1, DriftYaw: 0.2,
			Radius: 0.35, Color: [3]byte{220, 40, 40},
		}},
		Complexity: 0.3,
	}
}

// soakClass is a single-class population of n users playing soakSpec.
func soakClass(n int) []ClassSpec {
	return []ClassSpec{{Name: "soak", Users: n, Spec: soakSpec()}}
}

func soakIngest() server.IngestConfig {
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 48, 24
	cfg.FOVW, cfg.FOVH = 16, 16
	cfg.MaxSegments = 2
	cfg.Codec.SearchRange = 1
	return cfg
}

// soakTier ingests soakSpec into a fresh in-process Shards-0 tier: one
// server, no router. StoreDelay widens the cache-miss window so that 32
// simultaneous first requests for the same segment must coalesce rather
// than racing past each other.
func soakTier(t *testing.T, opts server.ServiceOptions) *cluster.Cluster {
	t.Helper()
	tier, err := cluster.New(nil, cluster.Options{Shard: opts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tier.Ingest(soakSpec(), soakIngest()); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return tier
}

// TestSoak32ConcurrentSessions is the CI concurrency soak: 32 users × 2
// passes against an in-process server with the response cache and synthetic
// store latency enabled, run under -race by ci.sh. It asserts the
// serving-path invariants the issue pins down: every session succeeds,
// displayed frames are byte-identical across passes, singleflight coalesces
// concurrent identical misses, and pass 2 is served from the response cache.
func TestSoak32ConcurrentSessions(t *testing.T) {
	opts := server.DefaultServiceOptions()
	opts.StoreDelay = 15 * time.Millisecond
	tier := soakTier(t, opts)

	baseURL, shutdown, err := ServeHandler(tier.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	const users = 32
	rep, err := Run(Config{
		BaseURL: baseURL,
		Classes: soakClass(users),
		Passes:  2,
		// 1/32 of the panel keeps 64 pixel-exact sessions affordable
		// under -race; the checksums still cover every displayed pixel.
		ViewportScale: 32,
		Tier:          tier,
	})
	if err != nil {
		t.Fatal(err)
	}

	if fails := rep.Failures(); len(fails) != 0 {
		t.Fatalf("%d/%d sessions failed, first: user %d pass %d: %v",
			len(fails), len(rep.Results), fails[0].User, fails[0].Pass, fails[0].Err)
	}
	if len(rep.Results) != users*2 {
		t.Fatalf("got %d results, want %d", len(rep.Results), users*2)
	}

	// Determinism: each user's displayed frames are byte-identical pass to
	// pass — the caches and the concurrency never change pixels.
	byUser := map[int]map[int]uint64{}
	for _, r := range rep.Results {
		if byUser[r.User] == nil {
			byUser[r.User] = map[int]uint64{}
		}
		byUser[r.User][r.Pass] = r.Checksum
	}
	for u := 0; u < users; u++ {
		if byUser[u][1] != byUser[u][2] {
			t.Errorf("user %d frames differ across passes: %#x vs %#x", u, byUser[u][1], byUser[u][2])
		}
		if byUser[u][1] == 0 {
			t.Errorf("user %d produced no frames", u)
		}
	}

	// Every frame is either a FOV hit or a fallback miss.
	for _, ps := range rep.PerPass {
		if ps.Frames == 0 {
			t.Fatalf("pass %d rendered no frames", ps.Pass)
		}
		if ps.Hits+ps.Misses != ps.Frames {
			t.Errorf("pass %d: hits %d + misses %d != frames %d", ps.Pass, ps.Hits, ps.Misses, ps.Frames)
		}
		if ps.Tier == nil {
			t.Fatalf("pass %d: no server-side delta for in-process target", ps.Pass)
		}
		if ps.Tier.Shards != nil {
			t.Errorf("pass %d: a tier without a router reported shard deltas %+v", ps.Pass, ps.Tier.Shards)
		}
	}

	// Singleflight: 32 users fetch the same manifest and segments at once
	// while the store is slow, so concurrent identical misses must coalesce.
	p1 := rep.PerPass[0].Tier
	if p1.CacheCoalesced == 0 {
		t.Error("pass 1 coalesced no concurrent identical misses")
	}
	// Response cache: pass 2 replays the same traces through fresh players
	// (cold client caches), so the server must serve it from cache.
	p2 := rep.PerPass[1].Tier
	if p2.CacheHits == 0 {
		t.Error("pass 2 got no server response-cache hits")
	}
	if p2.CacheMisses != 0 {
		t.Errorf("pass 2 missed the response cache %d times", p2.CacheMisses)
	}

	// Latency quantiles: monotone and bounded below by the store delay on
	// at least the max (pass-1 misses pay StoreDelay).
	l := rep.Latency
	if l.Requests == 0 {
		t.Fatal("no requests measured")
	}
	if l.P50 < 0 || l.P50 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max {
		t.Errorf("latency quantiles not monotone: p50 %v p95 %v p99 %v max %v", l.P50, l.P95, l.P99, l.Max)
	}
	if l.Max < opts.StoreDelay {
		t.Errorf("max latency %v below the synthetic store delay %v", l.Max, opts.StoreDelay)
	}

	// The text report renders without panicking and mentions the headline
	// numbers the CLI is specified to print.
	var sb strings.Builder
	rep.WriteText(&sb, true)
	out := sb.String()
	for _, want := range []string{"p50", "p95", "p99", "FOV hit", "server respcache", "coalesced", "per-user FOV-hit rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cluster:") {
		t.Errorf("a tier without a router printed a cluster block:\n%s", out)
	}
}

// TestRunRejectsBadConfig pins Run's setup gate.
func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{BaseURL: "http://x"}); err == nil {
		t.Error("run without classes accepted")
	}
	if _, err := Run(Config{BaseURL: "http://x", Classes: []ClassSpec{{Name: "a", Video: "RS"}}}); err == nil {
		t.Error("Users=0 accepted")
	}
	if _, err := Run(Config{Classes: []ClassSpec{{Name: "a", Users: 1, Video: "RS"}}}); err == nil {
		t.Error("empty BaseURL accepted")
	}
	if _, err := Run(Config{BaseURL: "http://x", Classes: []ClassSpec{{Name: "a", Users: 1, Video: "no-such-video"}}}); err == nil {
		t.Error("unknown video accepted")
	}
}

// TestServeRoundTrip exercises the in-process listener helper on its own.
func TestServeRoundTrip(t *testing.T) {
	tier := soakTier(t, server.DefaultServiceOptions())
	baseURL, shutdown, err := ServeHandler(tier.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	rep, err := Run(Config{
		BaseURL:       baseURL,
		Classes:       soakClass(2),
		Segments:      1,
		ViewportScale: 32,
		Tier:          tier,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures()) != 0 {
		t.Fatalf("failures: %v", rep.Failures())
	}
	if rep.PerPass[0].Frames != 2*30 {
		t.Errorf("2 users × 1 segment = %d frames, want 60", rep.PerPass[0].Frames)
	}
}

// TestShutdownDrainsInflightRequests pins the graceful-teardown bugfix:
// shutting the in-process listener down while requests are mid-flight
// must let them complete instead of resetting their connections. Before
// the fix (http.Server.Close) the in-flight responses died with transport
// errors — the "spurious error noise" multi-pass evrload runs saw when a
// pass's tail overlapped the teardown.
func TestShutdownDrainsInflightRequests(t *testing.T) {
	opts := server.DefaultServiceOptions()
	opts.StoreDelay = 150 * time.Millisecond // hold requests in flight
	tier := soakTier(t, opts)
	baseURL, shutdown, err := ServeHandler(tier.Handler())
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	inflight := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inflight <- struct{}{}
			// Distinct segments so every request pays the slow store load
			// rather than coalescing onto one flight.
			resp, err := http.Get(fmt.Sprintf("%s/v/SOAK/orig/%d", baseURL, i%2))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if _, err := io.ReadAll(resp.Body); err != nil {
				errs[i] = fmt.Errorf("reading body: %w", err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-inflight
	}
	// All launched; give them a beat to be accepted by the server, then
	// shut down while the store delay still holds them open.
	time.Sleep(30 * time.Millisecond)
	done := make(chan struct{})
	go func() { shutdown(); close(done) }()
	wg.Wait()
	<-done

	for i, err := range errs {
		if err != nil {
			t.Errorf("in-flight request %d dropped by shutdown: %v", i, err)
		}
	}

	// And the listener really is down afterward.
	if _, err := http.Get(baseURL + "/healthz"); err == nil {
		t.Error("server still serving after shutdown")
	}
}

// TestZipfRoutedRunAcrossVideos drives the routed cluster tier with a
// Zipf-popular population: users split across videos under a skewed law,
// the router partitions segments across shards, and the report carries
// per-shard skew and edge-hit-rate deltas.
func TestZipfRoutedRunAcrossVideos(t *testing.T) {
	specs := make([]scene.VideoSpec, 3)
	for i := range specs {
		s := soakSpec()
		s.Name = fmt.Sprintf("ZIPF%d", i)
		s.Objects[0].BaseYaw += 0.1 * float64(i)
		specs[i] = s
	}
	copts := cluster.DefaultOptions()
	copts.Shards = 3
	clu, err := cluster.New(nil, copts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if _, err := clu.Ingest(s, soakIngest()); err != nil {
			t.Fatalf("ingest %s: %v", s.Name, err)
		}
	}
	baseURL, shutdown, err := ServeHandler(clu.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	rep, err := Run(Config{
		BaseURL:       baseURL,
		Classes:       ZipfClasses(specs, 12, 1.2, ClassSpec{}),
		Passes:        2,
		ViewportScale: 32,
		Tier:          clu,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fails := rep.Failures(); len(fails) != 0 {
		t.Fatalf("%d sessions failed, first: %v", len(fails), fails[0].Err)
	}
	if len(rep.Videos) != 3 {
		t.Errorf("report catalog = %v", rep.Videos)
	}

	// The Zipf split is deterministic and skewed: the head video gets the
	// plurality of users, in every pass.
	byVideo := map[string]int{}
	for _, r := range rep.Results {
		byVideo[r.Video]++
	}
	if want := map[string]int{"ZIPF0": 2 * 7, "ZIPF1": 2 * 4, "ZIPF2": 2 * 1}; fmt.Sprint(byVideo) != fmt.Sprint(want) {
		t.Errorf("sessions per video = %v, want %v", byVideo, want)
	}

	// Per-pass cluster deltas: skew bounded, edge absorbing repeats by
	// pass 2 (fresh players, same segments).
	for _, ps := range rep.PerPass {
		cd := ps.Tier
		if cd == nil {
			t.Fatalf("pass %d missing cluster delta", ps.Pass)
		}
		if len(cd.Shards) != 3 {
			t.Fatalf("pass %d: %d shard deltas", ps.Pass, len(cd.Shards))
		}
		if ps.P99 < ps.P50 {
			t.Errorf("pass %d: p99 %v < p50 %v", ps.Pass, ps.P99, ps.P50)
		}
	}
	p2 := rep.PerPass[1].Tier
	if p2.EdgeHits == 0 {
		t.Error("pass 2 hit the edge cache zero times")
	}
	if skew := p2.Skew(); skew < 1 {
		t.Errorf("pass 2 skew %.2f < 1", skew)
	}

	// The text report renders the shards' summed response-cache line and
	// the cluster section.
	var sb strings.Builder
	rep.WriteText(&sb, false)
	out := sb.String()
	for _, want := range []string{"over 3 videos", "server respcache", "edge hit rate", "skew", "shard-0"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestWriteTextShowsDegradation: a resilient run against a server whose FOV
// and original payloads arrive truncated reports, per pass, what resilience
// absorbed — the pass's summed payload errors, frozen frames and fallbacks;
// the same run against a healthy server prints no such line.
func TestWriteTextShowsDegradation(t *testing.T) {
	svc := soakTier(t, server.DefaultServiceOptions()).Handler()
	run := func(h http.Handler) (*Report, string) {
		t.Helper()
		baseURL, shutdown, err := ServeHandler(h)
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown()
		// Closing the client's idle connections first lets the shutdown
		// drain at once: a dialled but never used connection would hold it
		// for 5 s.
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		rep, err := Run(Config{BaseURL: baseURL, Classes: soakClass(2), ViewportScale: 32, Resilient: true,
			HTTP: &http.Client{Transport: tr}})
		if err != nil {
			t.Fatal(err)
		}
		if fails := rep.Failures(); len(fails) != 0 {
			t.Fatalf("%d sessions failed, first: %v", len(fails), fails[0].Err)
		}
		var out strings.Builder
		rep.WriteText(&out, false)
		return rep, out.String()
	}

	if _, out := run(svc); strings.Contains(out, "degraded:") {
		t.Errorf("healthy run reports degradation:\n%s", out)
	}

	truncating := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.URL.Path, "/fov/") && !strings.Contains(r.URL.Path, "/orig/") {
			svc.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, r)
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes()[:rec.Body.Len()/2]) //nolint:errcheck // client may hang up
	})
	rep, out := run(truncating)
	var sum client.PlaybackStats
	for _, r := range rep.Results {
		sum.Add(r.Stats)
	}
	ps := rep.PerPass[0]
	if ps.PayloadErrors == 0 || ps.PayloadErrors != sum.PayloadErrors || ps.FrozenFrames != sum.FrozenFrames || ps.Fallbacks != sum.Fallbacks {
		t.Fatalf("pass counts %d payload errors, %d frozen, %d fallbacks; sessions sum to %d, %d, %d",
			ps.PayloadErrors, ps.FrozenFrames, ps.Fallbacks, sum.PayloadErrors, sum.FrozenFrames, sum.Fallbacks)
	}
	want := fmt.Sprintf("degraded: %d payload errors, %d frozen frames, %d fallbacks", ps.PayloadErrors, ps.FrozenFrames, ps.Fallbacks)
	if !strings.Contains(out, want) {
		t.Errorf("report lacks %q:\n%s", want, out)
	}
}
