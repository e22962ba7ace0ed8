package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"evr/internal/scene"
	"evr/internal/store"
	"evr/internal/telemetry"
)

// Service is the EVR streaming server: ingested videos plus their SAS
// store, exposed over HTTP. It distinguishes the two client request types
// of §5.3 — FOV-video requests at segment boundaries and original-segment
// requests on FOV misses. Between the handlers and the store sits the
// multi-user serving layer: a bounded LRU response cache with singleflight
// coalescing (hot payloads are marshaled once, not per request) and an
// admission-control cap that sheds excess segment load as 503s.
type Service struct {
	mu        sync.RWMutex
	store     *store.Store
	manifests map[string]*Manifest
	live      map[string]*LiveStream
	metrics   *Metrics

	storeDelay atomic.Int64  // nanoseconds; mutable at runtime (fault injection)
	cache      *respCache    // nil (caches nothing) when RespCacheBytes ≤ 0
	inflight   chan struct{} // nil when MaxInFlight ≤ 0
	retryAfter []string      // the 503's Retry-After value: whole seconds, ≥ 1
	throttled  *telemetry.Counter
	tooEarly   *telemetry.Counter
	liveBehind *telemetry.Histogram
}

// NewService returns an empty service backed by the given store, with the
// default serving options (64 MiB response cache, no admission cap).
func NewService(st *store.Store) *Service {
	return NewServiceOpts(st, DefaultServiceOptions())
}

// NewServiceOpts returns an empty service with explicit serving options.
func NewServiceOpts(st *store.Store, opts ServiceOptions) *Service {
	m := newMetrics()
	s := &Service{
		store:     st,
		manifests: make(map[string]*Manifest),
		live:      make(map[string]*LiveStream),
		metrics:   m,
		cache:     newRespCache(opts.RespCacheBytes, m.Registry()),
		// RetryAfter 0 (or anything under half a second) advertises 1 s.
		retryAfter: []string{strconv.Itoa(max(1, int(opts.RetryAfter.Round(time.Second)/time.Second)))},
	}
	s.storeDelay.Store(int64(opts.StoreDelay))
	m.reg.SetHelp(promThrottled, "segment requests shed by admission control (503)")
	s.throttled = m.reg.Counter(promThrottled)
	m.reg.SetHelp(promTooEarly, "live segment requests ahead of the edge (425)")
	s.tooEarly = m.reg.Counter(promTooEarly)
	m.reg.SetHelp(promLiveBehind, "server-observed time behind live at serve, seconds")
	s.liveBehind = m.reg.Histogram(promLiveBehind, telemetry.DefaultLatencyBuckets())
	if opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInFlight)
	}
	return s
}

// ServeLive attaches a live stream to this service: the manifest is served
// from the stream's atomically updated snapshot, requests at or past the
// live edge are answered 425 + Retry-After, successful live responses
// carry PublishedAtHeader, and every publish purges that segment's cached
// responses (dooming in-flight loads) so the edge advance is immediately
// visible.
func (s *Service) ServeLive(ls *LiveStream) {
	video := ls.Video()
	s.mu.Lock()
	s.live[video] = ls
	s.mu.Unlock()
	ls.OnPublish(func(seg int) { s.cache.PurgeKeys(OfSegment(video, seg)) })
}

// liveStream returns the live stream serving video, if any.
func (s *Service) liveStream(video string) *LiveStream {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live[video]
}

// SetStoreDelay changes the synthetic per-miss store latency at runtime —
// the chaos harness's slow-shard fault.
func (s *Service) SetStoreDelay(d time.Duration) {
	s.storeDelay.Store(int64(d))
}

// TooEarly returns how many live requests were rejected ahead of the edge.
func (s *Service) TooEarly() int64 { return s.tooEarly.Value() }

// Store exposes the backing SAS store.
func (s *Service) Store() *store.Store { return s.store }

// RespCacheStats snapshots the response cache. ok is false when the cache
// is disabled.
func (s *Service) RespCacheStats() (stats RespCacheStats, ok bool) {
	if s.cache == nil {
		return RespCacheStats{}, false
	}
	return s.cache.Stats(), true
}

// Throttled returns how many segment requests admission control has shed.
func (s *Service) Throttled() int64 { return s.throttled.Value() }

// IngestVideo runs the ingest pipeline and publishes the video. Cached
// responses of a previous ingest of the same video are purged so a
// republish is immediately visible.
func (s *Service) IngestVideo(v scene.VideoSpec, cfg IngestConfig) (*Manifest, error) {
	man, err := Ingest(v, cfg, s.store)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.manifests[v.Name] = man
	s.mu.Unlock()
	s.cache.PurgeKeys(OfVideo(v.Name))
	return man, nil
}

// Publish registers an already-ingested manifest with this service — the
// replica path of the cluster tier (internal/cluster): N services share
// one SAS store, one of them runs the ingest pipeline, and the rest
// publish the resulting manifest. Like IngestVideo, publishing purges
// cached responses of the video (and dooms in-flight response-cache
// loads) so a republish is immediately visible on every replica.
func (s *Service) Publish(man *Manifest) {
	s.mu.Lock()
	s.manifests[man.Video] = man
	s.mu.Unlock()
	s.cache.PurgeKeys(OfVideo(man.Video))
}

// Manifest returns the manifest of a published video. Live streams serve
// their current snapshot (edge and byte counts advance per publish).
func (s *Service) Manifest(video string) (*Manifest, bool) {
	s.mu.RLock()
	ls := s.live[video]
	m, ok := s.manifests[video]
	s.mu.RUnlock()
	if ls != nil {
		return ls.Manifest(), true
	}
	return m, ok
}

// Videos returns the published video names (batch and live), sorted.
func (s *Service) Videos() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.manifests)+len(s.live))
	for k := range s.manifests {
		out = append(out, k)
	}
	for k := range s.live {
		if _, dup := s.manifests[k]; !dup {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Handler returns the HTTP API: the catalog (GET /videos), the manifest
// (GET /v/{video}/manifest), one payload route per row of Kinds (DESIGN §10
// "Payload address"), and /metrics and /healthz. A canonical payload
// request skips the mux (Front): its path is parsed once and never
// pattern-matched.
func (s *Service) Handler() http.Handler {
	return Front(s.routes())
}

// routes builds the mux behind Handler and the payload handler Front calls
// directly. A payload kind counts on one endpoint class whichever way its
// request arrives, including the 400s and 404s of the mux route's gate.
func (s *Service) routes() (*http.ServeMux, func(http.ResponseWriter, *http.Request, Ref)) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.serveMetricsHTTP)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{"ok": true, "videos": len(s.Videos())}) //nolint:errcheck // no endpoint counter for healthz
	})
	mux.HandleFunc("GET /videos", s.metrics.instrument("videos", func(w http.ResponseWriter, r *http.Request) {
		if err := writeJSON(w, s.Videos()); err != nil {
			s.metrics.noteWriteError("videos")
		}
	}))
	mux.HandleFunc("GET /v/{video}/manifest", s.metrics.instrument("manifest", func(w http.ResponseWriter, r *http.Request) {
		man, ok := s.Manifest(r.PathValue("video"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		if err := writeJSON(w, man); err != nil {
			s.metrics.noteWriteError("manifest")
		}
	}))
	var endpoints [len(Kinds)]*endpointMetrics
	for k := range Kinds {
		e := s.metrics.getOrCreate(Kind(k).String())
		endpoints[k] = e
		mux.HandleFunc(Kind(k).Pattern(), func(w http.ResponseWriter, r *http.Request) {
			e.serve(w, func(w http.ResponseWriter) {
				if ref, ok := ParseRef(w, r); ok {
					s.servePayload(w, r, ref, e)
				}
			})
		})
	}
	return mux, func(w http.ResponseWriter, r *http.Request, ref Ref) {
		e := endpoints[ref.Kind]
		e.serve(w, func(w http.ResponseWriter) { s.servePayload(w, r, ref, e) })
	}
}

// Header values the payload path writes, each under its canonical key
// straight into the header map (no per-request canonicalisation). A shared
// value slice is never modified in place: a later Set or Add replaces it.
var (
	octetStream    = []string{"application/octet-stream"}
	publishedAtKey = http.CanonicalHeaderKey(PublishedAtHeader)
)

// liveAdmit rejects a request at or past a live stream's edge with 425 Too
// Early, plus a Retry-After hint when the next publish is ≥ 1 s out
// (sub-second schedules leave the pacing to client backoff). Segments past
// the stream's end fall through to the normal 404. Non-live videos always
// pass.
func (s *Service) liveAdmit(w http.ResponseWriter, video string, seg int) bool {
	ls := s.liveStream(video)
	if ls == nil || seg >= ls.Segments() || seg < ls.Edge() {
		return true
	}
	if secs := ls.RetryAfterSeconds(seg); secs >= 1 {
		w.Header()["Retry-After"] = []string{strconv.Itoa(secs)}
	}
	s.tooEarly.Inc()
	http.Error(w, "segment not yet published (live edge)", http.StatusTooEarly)
	return false
}

// stampLive adds the publish-timestamp header to responses for published
// live segments and observes server-side time-behind-live.
func (s *Service) stampLive(w http.ResponseWriter, video string, seg int) {
	ls := s.liveStream(video)
	if ls == nil {
		return
	}
	ns, ok := ls.PublishedAtNs(seg)
	if !ok {
		return
	}
	w.Header()[publishedAtKey] = []string{strconv.FormatInt(ns, 10)}
	s.liveBehind.Observe(float64(ls.Clock().Now().UnixNano()-ns) / 1e9)
}

// servePayload serves one payload through the live-edge gate, admission
// control and the response cache; e is the endpoint class it counts on.
func (s *Service) servePayload(w http.ResponseWriter, r *http.Request, ref Ref, e *endpointMetrics) {
	if !s.liveAdmit(w, ref.Video, ref.Seg) {
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.release()
	data, ok := s.payload(ref)
	if !ok {
		http.NotFound(w, r)
		return
	}
	h := w.Header()
	h["Content-Type"] = octetStream
	// The whole payload is in hand: declare its length rather than
	// stream it chunked, so the client reads it into one buffer.
	h["Content-Length"] = []string{strconv.Itoa(len(data))}
	s.stampLive(w, ref.Video, ref.Seg)
	if _, err := w.Write(data); err != nil {
		// Nothing to send the client anymore, but a half-delivered
		// segment is exactly what the fetch layer's retries mask —
		// surface it in the metrics instead of dropping it.
		e.writeErrors.Inc()
	}
}

// payload returns one segment payload, through the response cache when it
// is enabled (hot payloads skip the store read and its copy; concurrent
// identical misses coalesce into one load).
func (s *Service) payload(ref Ref) ([]byte, bool) {
	data, _, err := s.cache.Get(ref, func() ([]byte, error) {
		if d := time.Duration(s.storeDelay.Load()); d > 0 {
			time.Sleep(d)
		}
		data, meta, ok := s.store.Get(ref.StoreKey())
		if !ok {
			return nil, errNotStored
		}
		if ref.Kind == FOVMeta {
			return meta, nil
		}
		return data, nil
	})
	return data, err == nil
}

// admit reserves an in-flight slot, or sheds the request with 503 +
// Retry-After when the cap is reached. Always admits when no cap is set.
func (s *Service) admit(w http.ResponseWriter) bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		s.throttled.Inc()
		w.Header()["Retry-After"] = s.retryAfter
		http.Error(w, "segment request capacity exceeded", http.StatusServiceUnavailable)
		return false
	}
}

// release frees the in-flight slot admit reserved.
func (s *Service) release() {
	if s.inflight != nil {
		<-s.inflight
	}
}

// serveMetricsHTTP serves the metrics snapshot, extending the per-endpoint
// JSON view with the response-cache and admission counters. ?format=prom
// keeps the Prometheus text exposition (those series live on the same
// registry and are exported there automatically).
func (s *Service) serveMetricsHTTP(w http.ResponseWriter, r *http.Request) {
	if r != nil && r.URL.Query().Get("format") == "prom" {
		s.metrics.serveMetrics(w, r)
		return
	}
	snap := s.metrics.Snapshot()
	if stats, ok := s.RespCacheStats(); ok {
		snap.RespCache = &stats
	}
	snap.Throttled = s.Throttled()
	writeJSON(w, snap) //nolint:errcheck // no endpoint counter for /metrics itself
}

// writeJSON encodes to a buffer before touching the ResponseWriter: an
// encode failure must produce a clean 500, not a 200 header followed by a
// truncated body with an error message spliced into it. It returns the
// write error (the client hung up mid-response) for callers that track it.
func writeJSON(w http.ResponseWriter, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, fmt.Sprintf("encoding response: %v", err), http.StatusInternalServerError)
		return nil
	}
	w.Header().Set("Content-Type", "application/json")
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
