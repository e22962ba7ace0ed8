package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"evr/internal/scene"
	"evr/internal/store"
)

func TestMetricsCountRequests(t *testing.T) {
	v, _ := scene.ByName("RS")
	svc := NewService(store.New())
	if _, err := svc.IngestVideo(v, smallIngest()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	get("/v/RS/manifest")
	get("/v/RS/manifest")
	get("/v/RS/orig/0")
	get("/v/RS/orig/99")    // 404 → error counter
	get("/v/Nope/manifest") // 404

	snap := svc.metrics.Snapshot()
	man := snap.Endpoints["manifest"]
	if man == nil || man.Requests != 3 || man.Errors != 1 {
		t.Errorf("manifest stats = %+v", man)
	}
	orig := snap.Endpoints["orig"]
	if orig == nil || orig.Requests != 2 || orig.Errors != 1 {
		t.Errorf("orig stats = %+v", orig)
	}
	if orig.Bytes <= 0 {
		t.Error("no bytes counted for served segment")
	}
	if snap.UptimeSeconds <= 0 {
		t.Error("no uptime")
	}

	// /metrics itself serves the snapshot as JSON.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var parsed MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if parsed.Endpoints["manifest"].Requests != 3 {
		t.Errorf("served snapshot differs: %+v", parsed.Endpoints["manifest"])
	}
}

// TestMetricsQuantiles checks the registry-backed latency stats: totals
// and max stay populated, and the new percentile fields are ordered and
// bounded by the max.
func TestMetricsQuantiles(t *testing.T) {
	m := newMetrics()
	for i := 1; i <= 100; i++ {
		m.observe("x", 200, 1, time.Duration(i)*time.Millisecond)
	}
	s := m.Snapshot().Endpoints["x"]
	if s.Requests != 100 {
		t.Fatalf("requests = %d", s.Requests)
	}
	if s.TotalMs < 5000 || s.MaxMs < 99.9 || s.MaxMs > 100.1 {
		t.Errorf("totalMs=%v maxMs=%v", s.TotalMs, s.MaxMs)
	}
	if !(s.P50Ms > 0 && s.P50Ms <= s.P95Ms && s.P95Ms <= s.P99Ms && s.P99Ms <= s.MaxMs+1e-9) {
		t.Errorf("quantiles not ordered: p50=%v p95=%v p99=%v max=%v", s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs)
	}
	// p50 of a uniform 1..100 ms sweep is ~50 ms; one bucket width at that
	// range (25→50 ms) is generous slack.
	if s.P50Ms < 25 || s.P50Ms > 75 {
		t.Errorf("p50 = %v ms, want ≈50", s.P50Ms)
	}
}

// TestMetricsPrometheusEndpoint scrapes /metrics?format=prom and checks it
// parses as Prometheus text exposition with the per-endpoint series.
func TestMetricsPrometheusEndpoint(t *testing.T) {
	v, _ := scene.ByName("RS")
	svc := NewService(store.New())
	if _, err := svc.IngestVideo(v, smallIngest()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v/RS/manifest")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE evr_http_requests_total counter",
		`evr_http_requests_total{endpoint="manifest"} 3`,
		"# TYPE evr_http_request_seconds histogram",
		`evr_http_request_seconds_bucket{endpoint="manifest",le="+Inf"} 3`,
		`evr_http_request_seconds_count{endpoint="manifest"} 3`,
		"# TYPE evr_http_in_flight gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
	// Every non-comment line must be "name{labels} value" with a numeric
	// value, and histogram bucket counts must be cumulative.
	var lastBucket int64 = -1
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("non-numeric value in %q", line)
		}
		if strings.HasPrefix(fields[0], `evr_http_request_seconds_bucket{endpoint="manifest"`) {
			n, _ := strconv.ParseInt(fields[1], 10, 64)
			if n < lastBucket {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			lastBucket = n
		}
	}
	// The plain JSON endpoint still works and carries the new fields.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatalf("JSON /metrics broke: %v", err)
	}
	man := snap.Endpoints["manifest"]
	if man == nil || man.Requests != 3 || man.P95Ms < man.P50Ms {
		t.Errorf("JSON quantile fields wrong: %+v", man)
	}
}

// flushRecorder wraps httptest.ResponseRecorder and records Flush calls.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// TestCountingWriterFlushPassthrough: handlers behind instrument must see
// and reach the underlying Flusher (streaming responses were silently
// unflushable before).
func TestCountingWriterFlushPassthrough(t *testing.T) {
	m := newMetrics()
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	h := m.instrument("stream", func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("instrumented writer lost http.Flusher")
		}
		w.Write([]byte("chunk"))
		f.Flush()
		f.Flush()
	})
	h(rec, httptest.NewRequest(http.MethodGet, "/stream", nil))
	if rec.flushes != 2 {
		t.Errorf("flushes = %d, want 2", rec.flushes)
	}
	if u, ok := any(&countingWriter{ResponseWriter: rec}).(interface{ Unwrap() http.ResponseWriter }); !ok || u.Unwrap() != rec {
		t.Error("countingWriter does not unwrap for http.NewResponseController")
	}
	// A writer with no Flusher stays a no-op rather than panicking.
	(&countingWriter{ResponseWriter: nonFlusher{}}).Flush()
}

// nonFlusher is a ResponseWriter without Flush.
type nonFlusher struct{}

func (nonFlusher) Header() http.Header         { return http.Header{} }
func (nonFlusher) Write(b []byte) (int, error) { return len(b), nil }
func (nonFlusher) WriteHeader(int)             {}

func TestHealthz(t *testing.T) {
	svc := NewService(store.New())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %s", resp.Status)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["ok"] != true {
		t.Errorf("healthz body = %v", body)
	}
}

func TestMetricsConcurrentSafe(t *testing.T) {
	m := newMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.observe("x", 200, 10, time.Microsecond)
				m.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := m.Snapshot().Endpoints["x"].Requests; got != 1600 {
		t.Errorf("requests = %d, want 1600", got)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	m := newMetrics()
	m.observe("a", 200, 1, time.Millisecond)
	snap := m.Snapshot()
	snap.Endpoints["a"].Requests = 999
	if m.Snapshot().Endpoints["a"].Requests != 1 {
		t.Error("snapshot aliases live counters")
	}
}
