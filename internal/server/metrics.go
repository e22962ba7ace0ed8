package server

import (
	"net/http"
	"sync"
	"time"

	"evr/internal/telemetry"
)

// Metrics is the service's per-endpoint observability, backed by the
// shared telemetry registry: request/error/byte counters, an in-flight
// gauge, and a latency histogram with p50/p95/p99 estimation per endpoint
// class. Snapshots are served at /metrics as JSON (the pre-registry shape
// plus quantile fields) and as Prometheus text with ?format=prom.
type Metrics struct {
	started time.Time
	reg     *telemetry.Registry

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

// endpointMetrics is one endpoint class's live instruments.
type endpointMetrics struct {
	requests    *telemetry.Counter
	errors      *telemetry.Counter
	writeErrors *telemetry.Counter
	bytes       *telemetry.Counter
	inFlight    *telemetry.Gauge
	latency     *telemetry.Histogram
}

// endpointStats is the JSON view of one endpoint class. The first six
// fields predate the registry migration and keep their wire names; the
// quantiles and in-flight gauge are additive.
type endpointStats struct {
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`      // non-2xx responses
	WriteErrors int64   `json:"writeErrors"` // responses the client stopped reading mid-body
	Bytes       int64   `json:"bytes"`
	TotalMs     float64 `json:"totalMs"`
	MaxMs       float64 `json:"maxMs"`
	P50Ms       float64 `json:"p50Ms"`
	P95Ms       float64 `json:"p95Ms"`
	P99Ms       float64 `json:"p99Ms"`
	InFlight    int64   `json:"inFlight"`
}

// MetricsSnapshot is the JSON shape served at /metrics. RespCache and
// Throttled are filled by the service (they live above the per-endpoint
// layer); RespCache is omitted when the response cache is disabled.
type MetricsSnapshot struct {
	UptimeSeconds float64                   `json:"uptimeSeconds"`
	Endpoints     map[string]*endpointStats `json:"endpoints"`
	RespCache     *RespCacheStats           `json:"respCache,omitempty"`
	Throttled     int64                     `json:"throttled"`
}

// Prometheus metric names for the per-endpoint series.
const (
	promRequests    = "evr_http_requests_total"
	promErrors      = "evr_http_errors_total"
	promWriteErrors = "evr_http_write_errors_total"
	promBytes       = "evr_http_response_bytes_total"
	promInFlight    = "evr_http_in_flight"
	promLatency     = "evr_http_request_seconds"
)

// newMetrics returns zeroed counters over a fresh registry.
func newMetrics() *Metrics {
	reg := telemetry.NewRegistry()
	reg.SetHelp(promRequests, "HTTP requests served, by endpoint class")
	reg.SetHelp(promErrors, "non-2xx responses, by endpoint class")
	reg.SetHelp(promWriteErrors, "response bodies the client stopped reading, by endpoint class")
	reg.SetHelp(promBytes, "response bytes written, by endpoint class")
	reg.SetHelp(promInFlight, "requests currently being served, by endpoint class")
	reg.SetHelp(promLatency, "request service time in seconds, by endpoint class")
	return &Metrics{started: time.Now(), reg: reg, endpoints: make(map[string]*endpointMetrics)}
}

// Registry exposes the underlying telemetry registry so callers can hang
// additional series (ingest counters, store gauges) on the same /metrics.
func (m *Metrics) Registry() *telemetry.Registry { return m.reg }

// getOrCreate returns the instruments of one endpoint class, registering
// them on first use — the single init path for instrument, the payload
// routes and noteWriteError. Handlers look theirs up once, when they are
// built, so /metrics lists every endpoint of a built Handler, zero-valued
// until its first request.
func (m *Metrics) getOrCreate(endpoint string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.endpoints[endpoint]
	if !ok {
		lbl := telemetry.L("endpoint", endpoint)
		e = &endpointMetrics{
			requests:    m.reg.Counter(promRequests, lbl),
			errors:      m.reg.Counter(promErrors, lbl),
			writeErrors: m.reg.Counter(promWriteErrors, lbl),
			bytes:       m.reg.Counter(promBytes, lbl),
			inFlight:    m.reg.Gauge(promInFlight, lbl),
			latency:     m.reg.Histogram(promLatency, telemetry.DefaultLatencyBuckets(), lbl),
		}
		m.endpoints[endpoint] = e
	}
	return e
}

// observe records one served request.
func (e *endpointMetrics) observe(status int, bytes int64, d time.Duration) {
	e.requests.Inc()
	if status < 200 || status > 299 {
		e.errors.Inc()
	}
	e.bytes.Add(bytes)
	e.latency.ObserveDuration(d)
}

// noteWriteError records a response-body write failure on an endpoint.
func (m *Metrics) noteWriteError(endpoint string) {
	m.getOrCreate(endpoint).writeErrors.Inc()
}

// Snapshot copies the current counters into the JSON view.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	live := make(map[string]*endpointMetrics, len(m.endpoints))
	for k, v := range m.endpoints {
		live[k] = v
	}
	m.mu.Unlock()

	out := MetricsSnapshot{
		UptimeSeconds: time.Since(m.started).Seconds(),
		Endpoints:     make(map[string]*endpointStats, len(live)),
	}
	for k, e := range live {
		lat := e.latency.Snapshot()
		out.Endpoints[k] = &endpointStats{
			Requests:    e.requests.Value(),
			Errors:      e.errors.Value(),
			WriteErrors: e.writeErrors.Value(),
			Bytes:       e.bytes.Value(),
			TotalMs:     lat.Sum * 1e3,
			MaxMs:       lat.Max * 1e3,
			P50Ms:       lat.Quantile(0.50) * 1e3,
			P95Ms:       lat.Quantile(0.95) * 1e3,
			P99Ms:       lat.Quantile(0.99) * 1e3,
			InFlight:    e.inFlight.Value(),
		}
	}
	return out
}

// countingWriter wraps a ResponseWriter to capture status and bytes. It
// passes Flush through so streaming handlers behind instrument keep their
// flush capability (a no-op when the underlying writer can't flush), and
// exposes the wrapped writer via Unwrap for http.NewResponseController.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer when it supports flushing.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// extended interfaces (Flusher, Hijacker, deadlines).
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// serve runs one request on the endpoint's instruments: the in-flight
// gauge around it, then its status, body bytes and service time. h writes
// through the counting writer it is handed.
func (e *endpointMetrics) serve(w http.ResponseWriter, h func(http.ResponseWriter)) {
	e.inFlight.Inc()
	defer e.inFlight.Dec()
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h(cw)
	if cw.status == 0 {
		cw.status = http.StatusOK
	}
	e.observe(cw.status, cw.bytes, time.Since(start))
}

// instrument wraps a handler with per-endpoint metrics, including the
// in-flight gauge. The endpoint's instruments are looked up here, once.
func (m *Metrics) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	e := m.getOrCreate(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		e.serve(w, func(w http.ResponseWriter) { h(w, r) })
	}
}

// serveMetrics writes the snapshot: Prometheus text exposition with
// ?format=prom, JSON otherwise (buffered via writeJSON so an encode
// failure is a clean 500).
func (m *Metrics) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r != nil && r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.reg.WritePrometheus(w) //nolint:errcheck // client hung up mid-scrape
		return
	}
	writeJSON(w, m.Snapshot()) //nolint:errcheck // no endpoint counter for /metrics itself
}
