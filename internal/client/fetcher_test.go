package client

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
)

// fastFetchConfig returns a test-speed config: real retries and caps, but
// millisecond backoff so fault tests stay quick.
func fastFetchConfig() FetchConfig {
	cfg := DefaultFetchConfig()
	cfg.Timeout = 2 * time.Second
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 4 * time.Millisecond
	return cfg
}

func TestFetcherRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "origin hiccup", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "payload")
	}))
	defer ts.Close()

	f := NewFetcher(fastFetchConfig(), nil)
	body, err := f.get(ts.URL)
	if err != nil {
		t.Fatalf("get after transient failures: %v", err)
	}
	if string(body) != "payload" {
		t.Fatalf("body = %q", body)
	}
	c := f.Counters()
	if c.Retries != 2 {
		t.Errorf("Retries = %d, want 2", c.Retries)
	}
	if c.BytesFetched != int64(len("payload")) {
		t.Errorf("BytesFetched = %d", c.BytesFetched)
	}
}

func TestFetcherGivesUpAfterMaxRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	cfg := fastFetchConfig()
	cfg.MaxRetries = 2
	f := NewFetcher(cfg, nil)
	if _, err := f.get(ts.URL); err == nil {
		t.Fatal("permanently failing origin succeeded")
	}
	if got := calls.Load(); got != 3 { // 1 attempt + 2 retries
		t.Errorf("origin saw %d attempts, want 3", got)
	}
	if c := f.Counters(); c.Retries != 2 {
		t.Errorf("Retries = %d, want 2", c.Retries)
	}
}

// TestFetcherCloseAbortsBackoff pins the backoff cancellation fix: a
// fetcher closed during a long retry backoff must return promptly instead
// of sleeping out the full delay (backoff used to be an uninterruptible
// time.Sleep).
func TestFetcherCloseAbortsBackoff(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	cfg := fastFetchConfig()
	cfg.MaxRetries = 1
	cfg.BackoffBase = 30 * time.Second // without cancellation the test would hang here
	cfg.BackoffMax = 30 * time.Second
	f := NewFetcher(cfg, nil)

	errc := make(chan error, 1)
	go func() {
		_, err := f.get(ts.URL)
		errc <- err
	}()
	// Wait until the first attempt has failed and the backoff started.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	f.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("get against a failing origin succeeded")
		}
		if !strings.Contains(err.Error(), "retry aborted") {
			t.Errorf("error does not mention the aborted retry: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("backoff abort took %v, want prompt return", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("get still blocked in backoff 5 s after Close")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("origin saw %d attempts after Close, want 1", got)
	}
}

// TestFetcherCloseCancelsInflightAttempt checks Close also cuts an attempt
// that is mid-transfer, via the request context parented on the fetcher.
func TestFetcherCloseCancelsInflightAttempt(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}))
	defer ts.Close()
	defer close(release)

	cfg := fastFetchConfig()
	cfg.Timeout = 0 // no per-attempt deadline: only Close can end this
	cfg.MaxRetries = 0
	f := NewFetcher(cfg, nil)
	errc := make(chan error, 1)
	go func() {
		_, err := f.get(ts.URL)
		errc <- err
	}()
	<-entered
	f.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("canceled attempt reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("attempt still blocked 5 s after Close")
	}
}

func TestFetcherDoesNotRetryPermanentErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()

	f := NewFetcher(fastFetchConfig(), nil)
	if _, err := f.get(ts.URL); err == nil {
		t.Fatal("404 did not error")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("404 was attempted %d times, want 1", got)
	}
	if c := f.Counters(); c.Retries != 0 {
		t.Errorf("Retries = %d, want 0", c.Retries)
	}
}

func TestFetcherTimeoutFires(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()

	cfg := fastFetchConfig()
	cfg.Timeout = 30 * time.Millisecond
	cfg.MaxRetries = 1
	f := NewFetcher(cfg, nil)
	start := time.Now()
	_, err := f.get(ts.URL)
	if err == nil {
		t.Fatal("hung origin did not error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timeout took %v — per-request timeout not honored", elapsed)
	}
	c := f.Counters()
	if c.TimedOut != 2 { // both attempts timed out
		t.Errorf("TimedOut = %d, want 2", c.TimedOut)
	}
	if c.Retries != 1 {
		t.Errorf("Retries = %d, want 1", c.Retries)
	}
}

func TestFetcherResponseSizeCap(t *testing.T) {
	big := strings.Repeat("x", 4096)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, big)
	}))
	defer ts.Close()

	cfg := fastFetchConfig()
	cfg.MaxResponseBytes = 100
	f := NewFetcher(cfg, nil)
	if _, err := f.get(ts.URL); err == nil {
		t.Fatal("oversized response accepted")
	}
	if c := f.Counters(); c.Retries != 0 {
		t.Errorf("oversize was retried %d times; it is permanent", c.Retries)
	}

	cfg.MaxResponseBytes = int64(len(big))
	f = NewFetcher(cfg, nil)
	if _, err := f.get(ts.URL); err != nil {
		t.Fatalf("response exactly at cap rejected: %v", err)
	}
}

// TestFetcherContentLengthLies: the advertised length only sizes the read
// buffer. One above the cap is refused before the body is read; one above the
// body is a short read, an error like any broken transfer.
func TestFetcherContentLengthLies(t *testing.T) {
	const body = "0123456789"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", r.URL.Query().Get("claim"))
		fmt.Fprint(w, body)
	}))
	defer ts.Close()

	cfg := fastFetchConfig()
	cfg.MaxRetries = 0
	cfg.MaxResponseBytes = 64
	f := NewFetcher(cfg, nil)
	defer f.Close()
	if got, err := f.get(ts.URL + "?claim=10"); err != nil || string(got) != body {
		t.Fatalf("honest length: %q, %v", got, err)
	}
	if _, err := f.get(ts.URL + "?claim=65"); err == nil || !strings.Contains(err.Error(), "exceeds 64-byte cap") {
		t.Errorf("length above the cap: err = %v, want the advertised-length refusal", err)
	}
	if _, err := f.get(ts.URL + "?claim=40"); err == nil || !strings.Contains(err.Error(), "reading body") {
		t.Errorf("length above the body: err = %v, want a short-read error", err)
	}
	if c := f.Counters(); c.BytesFetched != int64(len(body)) {
		t.Errorf("BytesFetched = %d, want only the honest response's %d", c.BytesFetched, len(body))
	}
}

// TestReadAllPresized: a body of exactly the hinted size is read into one
// allocation; a longer one still arrives whole.
func TestReadAllPresized(t *testing.T) {
	data := []byte(strings.Repeat("x", 3000))
	r := bytes.NewReader(data)
	if allocs := testing.AllocsPerRun(10, func() {
		r.Reset(data)
		if _, err := readAll(r, int64(len(data))); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("exact hint: %.0f allocations, want 1", allocs)
	}
	for _, hint := range []int64{0, 512, 2999} {
		got, err := readAll(bytes.NewReader(data), hint)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("hint %d: read %d bytes, %v", hint, len(got), err)
		}
	}
}

// TestFetcherSingleflight issues many concurrent demands for the same
// segment and checks the origin served exactly one download.
func TestFetcherSingleflight(t *testing.T) {
	ts, _ := startTestServer(t, "RS", 1)
	var origRequests atomic.Int64
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/orig/") {
			origRequests.Add(1)
			time.Sleep(20 * time.Millisecond) // widen the race window
		}
		resp, err := http.Get(ts.URL + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.WriteHeader(resp.StatusCode)
		if _, err := w.Write(body); err != nil {
			t.Error(err)
		}
	}))
	defer counting.Close()

	f := NewFetcher(fastFetchConfig(), nil)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = f.Segment(counting.URL, server.Ref{Video: "RS", Kind: server.Orig})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent fetch %d: %v", i, err)
		}
	}
	if got := origRequests.Load(); got != 1 {
		t.Errorf("origin served %d downloads for one segment, want 1", got)
	}
	if c := f.Counters(); c.CacheHits != n-1 {
		t.Errorf("CacheHits = %d, want %d (joiners + cache)", c.CacheHits, n-1)
	}
}

// TestFetcherHonorsRetryAfter pins the shed-signal bugfix: a 503 carrying
// Retry-After must delay the retry by the server's hint (clamped to
// BackoffMax) instead of the client's own much shorter exponential
// backoff, and the honored waits must be counted. Before the fix the
// header was ignored and a shedding origin was re-hit almost immediately.
func TestFetcherHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1") // 1 s — far above the backoff schedule
			http.Error(w, "shedding", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "recovered")
	}))
	defer ts.Close()

	cfg := fastFetchConfig() // BackoffBase 1 ms — ignored hint would retry in ~1-2 ms
	cfg.BackoffMax = 60 * time.Millisecond
	f := NewFetcher(cfg, nil)
	defer f.Close()
	start := time.Now()
	body, err := f.get(ts.URL)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("get after shed responses: %v", err)
	}
	if string(body) != "recovered" {
		t.Fatalf("body = %q", body)
	}
	c := f.Counters()
	if c.Retries != 2 {
		t.Errorf("Retries = %d, want 2", c.Retries)
	}
	if c.RetryAfterWaits != 2 {
		t.Errorf("RetryAfterWaits = %d, want 2 (both shed responses carried the header)", c.RetryAfterWaits)
	}
	// Two honored waits, each clamped from 1 s down to BackoffMax = 60 ms:
	// well above what the ignored-header schedule (≤ ~6 ms total) could
	// produce, and well below the unclamped 2 s a hostile origin could ask
	// for.
	if elapsed < 100*time.Millisecond {
		t.Errorf("elapsed %v: Retry-After hint not honored", elapsed)
	}
	if elapsed > time.Second {
		t.Errorf("elapsed %v: Retry-After hint not clamped to BackoffMax", elapsed)
	}
}

// TestFetcherRetryAfterAbsentUsesBackoff pins that 503s without the header
// keep the pre-fix behavior: exponential backoff, no honored-wait counts.
func TestFetcherRetryAfterAbsentUsesBackoff(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 1 {
			http.Error(w, "hiccup", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer ts.Close()

	f := NewFetcher(fastFetchConfig(), nil)
	defer f.Close()
	if _, err := f.get(ts.URL); err != nil {
		t.Fatal(err)
	}
	c := f.Counters()
	if c.Retries != 1 || c.RetryAfterWaits != 0 {
		t.Errorf("Retries = %d, RetryAfterWaits = %d, want 1 and 0", c.Retries, c.RetryAfterWaits)
	}
}

// TestParseRetryAfter tables the header forms: delay-seconds, HTTP-date,
// and the garbage/past/empty values that must fall back to 0.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		// loose lets HTTP-date cases tolerate the clock read between
		// formatting and parsing.
		loose bool
	}{
		{in: "", want: 0},
		{in: "3", want: 3 * time.Second},
		{in: "0", want: 0},
		{in: "-5", want: 0},
		{in: "soon", want: 0},
		{in: "1.5", want: 0}, // delay-seconds is integral per RFC 9110
		{in: time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat), want: 2 * time.Second, loose: true},
		{in: time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat), want: 0},
	}
	for _, c := range cases {
		got := parseRetryAfter(c.in)
		if c.loose {
			if got <= 0 || got > c.want {
				t.Errorf("parseRetryAfter(%q) = %v, want in (0, %v]", c.in, got, c.want)
			}
			continue
		}
		if got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestFetchedPosesMatchIngest checks that the control plane moves no angle:
// every cluster's manifest Pose decodes to the ingest's first-frame
// orientation and its FOVMeta payload to every frame's, bit for bit, so
// cluster choice and the per-frame FOV check see what the server rendered.
func TestFetchedPosesMatchIngest(t *testing.T) {
	v, _ := scene.ByName("RS")
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 96, 48
	cfg.FOVW, cfg.FOVH = 32, 32
	cfg.MaxSegments = 2
	cfg.Codec.SearchRange = 1
	svc := server.NewService(store.New())
	want, err := svc.IngestVideo(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	f := NewFetcher(fastFetchConfig(), nil)
	defer f.Close()
	got, err := f.Manifest(ts.URL, "RS")
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b server.FrameMeta) bool {
		return math.Float64bits(a.Yaw) == math.Float64bits(b.Yaw) && math.Float64bits(a.Pitch) == math.Float64bits(b.Pitch)
	}
	clusters := 0
	for si, seg := range want.Segments {
		for ci, cl := range seg.Clusters {
			if pose := got.Segments[si].Clusters[ci].Pose; !same(pose, cl.Meta[0]) {
				t.Errorf("segment %d cluster %d: manifest pose %+v, ingest %+v", seg.Index, cl.ID, pose, cl.Meta[0])
			}
			_, meta, err := f.Segment(ts.URL, server.Ref{Video: "RS", Kind: server.FOV, Seg: seg.Index, A: cl.ID})
			if err != nil {
				t.Fatal(err)
			}
			if len(meta) != len(cl.Meta) {
				t.Fatalf("segment %d cluster %d: %d poses fetched, %d ingested", seg.Index, cl.ID, len(meta), len(cl.Meta))
			}
			for fr := range meta {
				if !same(meta[fr], cl.Meta[fr]) {
					t.Errorf("segment %d cluster %d frame %d: fetched %+v, ingest %+v", seg.Index, cl.ID, fr, meta[fr], cl.Meta[fr])
				}
			}
			clusters++
		}
	}
	if clusters == 0 {
		t.Fatal("no FOV videos ingested")
	}
}
