package client

import (
	"bytes"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"evr/internal/frame"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
)

// assertAccounting checks the playback invariant: every displayed frame is
// exactly one of hit or miss.
func assertAccounting(t *testing.T, label string, stats PlaybackStats, frames []*frame.Frame) {
	t.Helper()
	if stats.Hits+stats.Misses != stats.Frames {
		t.Errorf("%s: Hits(%d)+Misses(%d) != Frames(%d)", label, stats.Hits, stats.Misses, stats.Frames)
	}
	if len(frames) != stats.Frames {
		t.Errorf("%s: displayed %d frames but Frames=%d", label, len(frames), stats.Frames)
	}
}

// framesEqual reports byte-identical frame sequences.
func framesEqual(a, b []*frame.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].W != b[i].W || a[i].H != b[i].H || !bytes.Equal(a[i].Pix, b[i].Pix) {
			return false
		}
	}
	return true
}

// TestHitMissAccountingInvariant asserts Hits+Misses == Frames across a
// healthy run, a resilient corrupt-FOV degradation run, a total-loss
// (frozen frames) run, and a live-mode (no FOV videos) run.
func TestHitMissAccountingInvariant(t *testing.T) {
	ts, v := startTestServer(t, "RS", 2)
	imu := func() *hmd.IMU { return hmd.NewIMU(headtrace.Generate(v, 0)) }

	p := NewPlayer(ts.URL)
	stats, frames, err := p.Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	assertAccounting(t, "healthy", stats, frames)
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Errorf("healthy run should mix hits and misses for this trace: %+v", stats)
	}

	corrupt, _ := corruptTestServer(t, func(p string) bool {
		return strings.Contains(p, "/fov/") && !strings.Contains(p, "fovmeta")
	})
	p = NewPlayer(corrupt.URL)
	p.Resilient = true
	stats, frames, err = p.Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	assertAccounting(t, "corrupt-FOV degradation", stats, frames)
	if stats.Hits != 0 || stats.Misses != stats.Frames {
		t.Errorf("degraded run: want all misses, got %+v", stats)
	}

	lost, _ := corruptTestServer(t, func(p string) bool {
		return strings.Contains(p, "/orig/") ||
			(strings.Contains(p, "/fov/") && !strings.Contains(p, "fovmeta"))
	})
	p = NewPlayer(lost.URL)
	p.Resilient = true
	stats, frames, err = p.Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	assertAccounting(t, "total loss", stats, frames)
	if stats.FrozenFrames == 0 {
		t.Error("total loss produced no frozen frames")
	}
}

// slowingHandler delays matching paths long enough to trip the client's
// per-request timeout.
func slowingHandler(inner http.Handler, match func(string) bool, delay time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if match(r.URL.Path) {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
}

// TestSlowOriginTimesOutAndDegrades plays against an origin whose
// original-segment endpoint hangs past the client timeout: the timeout
// must fire (not stall playback forever), and resilient mode must keep
// emitting frames.
func TestSlowOriginTimesOutAndDegrades(t *testing.T) {
	ts, v := startTestServer(t, "RS", 2)
	slow := httptest.NewServer(slowingHandler(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			resp, err := http.Get(ts.URL + r.URL.Path)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body) //nolint:errcheck // client may hang up
		}),
		func(p string) bool { return strings.Contains(p, "/orig/") },
		500*time.Millisecond,
	))
	defer slow.Close()

	p := NewPlayer(slow.URL)
	p.Resilient = true
	p.Fetch = FetchConfig{ // no cache/prefetch: deterministic counters
		Timeout:     50 * time.Millisecond,
		MaxRetries:  1,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}
	done := make(chan struct{})
	var stats PlaybackStats
	var frames []*frame.Frame
	var err error
	go func() {
		defer close(done)
		stats, frames, err = p.Play("RS", hmd.NewIMU(headtrace.Generate(v, 0)), 2)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("playback stalled on a hung origin — timeout never fired")
	}
	if err != nil {
		t.Fatalf("resilient playback failed: %v", err)
	}
	if stats.TimedOut == 0 {
		t.Error("no timeouts recorded against a hanging origin")
	}
	if stats.Retries == 0 {
		t.Error("no retries recorded")
	}
	if stats.PayloadErrors == 0 {
		t.Error("no payload errors survived")
	}
	if stats.Frames != 60 {
		t.Errorf("played %d frames, want 60", stats.Frames)
	}
	assertAccounting(t, "slow origin", stats, frames)
}

// flakyHandler fails the first request to each distinct path with 503,
// then serves normally — the transient-outage shape retries must absorb.
type flakyHandler struct {
	inner http.Handler
	mu    sync.Mutex
	seen  map[string]bool
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	first := !h.seen[r.URL.Path]
	h.seen[r.URL.Path] = true
	h.mu.Unlock()
	if first {
		http.Error(w, "transient outage", http.StatusServiceUnavailable)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// TestFlakyOriginRetriesToIdenticalPlayback checks that retries fully mask
// a transiently failing origin: playback succeeds without resilient mode
// and displays byte-identical frames to a healthy run.
func TestFlakyOriginRetriesToIdenticalPlayback(t *testing.T) {
	ts, v := startTestServer(t, "RS", 2)
	flaky := httptest.NewServer(&flakyHandler{inner: proxyTo(t, ts.URL), seen: make(map[string]bool)})
	defer flaky.Close()

	cfg := fastFetchConfig()
	imu := func() *hmd.IMU { return hmd.NewIMU(headtrace.Generate(v, 0)) }

	pf := NewPlayer(flaky.URL)
	pf.Fetch = cfg
	sFlaky, fFlaky, err := pf.Play("RS", imu(), 2)
	if err != nil {
		t.Fatalf("flaky origin defeated the retry layer: %v", err)
	}
	if sFlaky.Retries == 0 {
		t.Error("no retries recorded against a flaky origin")
	}

	ph := NewPlayer(ts.URL)
	ph.Fetch = cfg
	sHealthy, fHealthy, err := ph.Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(fFlaky, fHealthy) {
		t.Error("flaky-origin frames differ from healthy run — retries leaked corruption")
	}
	if sFlaky.Hits != sHealthy.Hits || sFlaky.Misses != sHealthy.Misses {
		t.Errorf("QoE differs: flaky %+v vs healthy %+v", sFlaky, sHealthy)
	}
	if sFlaky.PayloadErrors != 0 {
		t.Errorf("payload errors %d on a flaky-but-correct origin", sFlaky.PayloadErrors)
	}
	assertAccounting(t, "flaky origin", sFlaky, fFlaky)
}

// proxyTo forwards requests to another server (so fault wrappers can sit
// in front of an already-started service).
func proxyTo(t *testing.T, baseURL string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(baseURL + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body) //nolint:errcheck // client may hang up
	})
}

// TestCachePrefetchByteIdentical plays the same trace with the cache and
// prefetcher enabled vs fully disabled and requires byte-identical
// displayed frames and identical QoE accounting — the fetch layer must be
// invisible to the pixels.
func TestCachePrefetchByteIdentical(t *testing.T) {
	ts, v := startTestServer(t, "RS", 3)
	imu := func() *hmd.IMU { return hmd.NewIMU(headtrace.Generate(v, 0)) }

	on := NewPlayer(ts.URL)
	on.Fetch.BackoffBase = time.Millisecond
	sOn, fOn, err := on.Play("RS", imu(), 3)
	if err != nil {
		t.Fatal(err)
	}

	off := NewPlayer(ts.URL)
	off.Fetch.CacheSegments = 0
	off.Fetch.Prefetch = false
	off.Fetch.BackoffBase = time.Millisecond
	sOff, fOff, err := off.Play("RS", imu(), 3)
	if err != nil {
		t.Fatal(err)
	}

	if !framesEqual(fOn, fOff) {
		t.Fatal("cache/prefetch changed displayed pixels")
	}
	if sOn.Hits != sOff.Hits || sOn.Misses != sOff.Misses || sOn.Fallbacks != sOff.Fallbacks {
		t.Errorf("cache/prefetch changed QoE: on %+v vs off %+v", sOn, sOff)
	}
	if sOff.CacheHits != 0 || sOff.PrefetchHits != 0 {
		t.Errorf("disabled cache recorded hits: %+v", sOff)
	}
	if sOn.PrefetchHits == 0 {
		t.Error("prefetcher never hid a fetch across 3 segments")
	}
	assertAccounting(t, "cache on", sOn, fOn)
	assertAccounting(t, "cache off", sOff, fOff)
}

// TestCacheAvoidsRedownloadOnReplay replays the same video on one player:
// the second run must be served almost entirely from the decoded cache.
func TestCacheAvoidsRedownloadOnReplay(t *testing.T) {
	ts, v := startTestServer(t, "RS", 2)
	p := NewPlayer(ts.URL)
	p.Fetch.BackoffBase = time.Millisecond
	imu := func() *hmd.IMU { return hmd.NewIMU(headtrace.Generate(v, 0)) }

	s1, f1, err := p.Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, f2, err := p.Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(f1, f2) {
		t.Fatal("replay frames differ")
	}
	if s2.CacheHits == 0 {
		t.Error("replay produced no cache hits")
	}
	// The replay only re-fetches the (uncached) manifest — a sliver of the
	// first run's traffic.
	if s2.BytesFetched >= s1.BytesFetched/2 {
		t.Errorf("replay fetched %d bytes vs first run's %d — cache not engaged", s2.BytesFetched, s1.BytesFetched)
	}
}

// refLogServer serves segments of v at test size — a live ingest, with no
// FOV videos, when live is set — and logs the address of every payload
// request; served returns the log so far and clears it.
func refLogServer(t *testing.T, v scene.VideoSpec, segments int, live bool) (ts *httptest.Server, served func() []server.Ref) {
	t.Helper()
	cfg := testIngestConfig(segments)
	cfg.LiveMode = live
	svc := server.NewService(store.New())
	if _, err := svc.IngestVideo(v, cfg); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var log []server.Ref
	mux := svc.Handler()
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ref, err := server.ParseRefPath(r.URL.Path); err == nil {
			mu.Lock()
			log = append(log, ref)
			mu.Unlock()
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, func() []server.Ref {
		mu.Lock()
		defer mu.Unlock()
		out := log
		log = nil
		return out
	}
}

// TestPrefetchFetchesNoUnreadOriginal: the prefetcher warms only what the
// next segment's decision plays, so a FOV segment's original is fetched at
// its first miss or not at all. Over the evaluation set × users 0–5, the
// originals served to a session with the cache and prefetch on are the ones
// served with both off, and the frames are byte-identical. On a live ingest
// (no FOV videos) the original is what every segment plays, so every next
// original is still a prefetch hit.
func TestPrefetchFetchesNoUnreadOriginal(t *testing.T) {
	const segments = 3
	origs := func(refs []server.Ref) map[server.Ref]bool {
		out := map[server.Ref]bool{}
		for _, ref := range refs {
			if ref.Kind == server.Orig {
				out[ref] = true
			}
		}
		return out
	}
	for _, v := range scene.EvalSet() {
		t.Run(v.Name, func(t *testing.T) {
			ts, served := refLogServer(t, v, segments, false)
			fallbacks, hits := 0, 0
			for u := 0; u < 6; u++ {
				imu := func() *hmd.IMU { return hmd.NewIMU(headtrace.Generate(v, u)) }
				on := NewPlayer(ts.URL)
				on.Fetch.BackoffBase = time.Millisecond
				sOn, fOn, err := on.Play(v.Name, imu(), segments)
				if err != nil {
					t.Fatal(err)
				}
				onOrigs := origs(served())

				off := NewPlayer(ts.URL)
				off.Fetch.CacheSegments = 0
				off.Fetch.Prefetch = false
				off.Fetch.BackoffBase = time.Millisecond
				_, fOff, err := off.Play(v.Name, imu(), segments)
				if err != nil {
					t.Fatal(err)
				}
				offOrigs := origs(served())

				if !framesEqual(fOn, fOff) {
					t.Errorf("user %d: prefetch changed displayed pixels", u)
				}
				if !maps.Equal(onOrigs, offOrigs) {
					t.Errorf("user %d: originals served with prefetch %v, without %v", u, onOrigs, offOrigs)
				}
				fallbacks += len(offOrigs)
				hits += sOn.PrefetchHits
			}
			t.Logf("%d originals fetched and %d prefetch hits over six users", fallbacks, hits)
			if hits == 0 {
				t.Error("the prefetcher never hid a fetch")
			}
		})
	}
	t.Run("live", func(t *testing.T) {
		v, _ := scene.ByName("RS")
		ts, served := refLogServer(t, v, segments, true)
		stats, _, err := NewPlayer(ts.URL).Play(v.Name, hmd.NewIMU(headtrace.Generate(v, 0)), segments)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(origs(served())); got != segments {
			t.Errorf("%d originals served, want all %d", got, segments)
		}
		if stats.PrefetchHits != segments-1 {
			t.Errorf("%d prefetch hits, want every next original: %d", stats.PrefetchHits, segments-1)
		}
	})
}
