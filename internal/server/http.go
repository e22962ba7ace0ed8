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
	endpoints [len(Kinds)]*endpointMetrics // one per payload Kind

	storeDelay atomic.Int64  // nanoseconds; mutable at runtime (fault injection)
	cache      *respCache    // nil (caches nothing) when RespCacheBytes ≤ 0
	inflight   chan struct{} // nil when MaxInFlight ≤ 0
	overCap    Answer        // the 503 admission control sheds with
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
		overCap: textError(http.StatusServiceUnavailable, "segment request capacity exceeded",
			[]string{strconv.Itoa(max(1, int(opts.RetryAfter.Round(time.Second)/time.Second)))}),
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
	for k := range s.endpoints {
		s.endpoints[k] = m.getOrCreate(Kind(k).String())
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
	for k, e := range s.endpoints {
		mux.HandleFunc(Kind(k).Pattern(), func(w http.ResponseWriter, r *http.Request) {
			ref, err := ParseRefPath(r.URL.Path)
			if err != nil {
				e.serve(w, func(w http.ResponseWriter) { writeRefError(w, r, err) })
				return
			}
			s.serve(w, ref)
		})
	}
	return mux, func(w http.ResponseWriter, _ *http.Request, ref Ref) { s.serve(w, ref) }
}

// Answer is one payload request's whole response as the service decides
// it: the status, the header values it sets and the body. Handler writes it
// to the wire; the cluster router asks the owning shard for it in-process
// (Service.Answer) and replays it, edge-cached or not. Each header value is
// a one-element slice that answers share (nil = not set), and a 200's Body
// is the response cache's slice of the payload: read them, never modify
// them.
type Answer struct {
	Status int
	// ContentType is octet-stream on a 200. A 404, 425 or 503 is what
	// http.Error writes: text/plain, with Nosniff (X-Content-Type-Options).
	ContentType, Nosniff []string
	// ContentLength is a 200's, formatted once per response-cache load:
	// the whole payload is in hand, so it is declared rather than streamed
	// chunked, and the client reads it into one buffer.
	ContentLength []string
	RetryAfter    []string // the 503's, and the 425's when the next publish is ≥ 1 s out
	PublishedAt   []string // PublishedAtHeader, on a live segment's 200
	Body          []byte
}

// Write sends the answer onto w — its headers, its status, then its body —
// and returns what w's Write did with the body. The header values go into
// w's header map as they are: a later Set or Add replaces one, never
// modifies it.
func (a *Answer) Write(w http.ResponseWriter) (int, error) {
	h := w.Header()
	if a.ContentType != nil {
		h["Content-Type"] = a.ContentType
	}
	if a.Nosniff != nil {
		h["X-Content-Type-Options"] = a.Nosniff
	}
	if a.ContentLength != nil {
		h["Content-Length"] = a.ContentLength
	}
	if a.RetryAfter != nil {
		h["Retry-After"] = a.RetryAfter
	}
	if a.PublishedAt != nil {
		h[publishedAtKey] = a.PublishedAt
	}
	w.WriteHeader(a.Status)
	return w.Write(a.Body)
}

// Header values and bodies the payload path answers with, each header
// value under its canonical key (no per-request canonicalisation). The
// error answers are http.Error's, byte for byte.
var (
	octetStream    = []string{"application/octet-stream"}
	textPlain      = []string{"text/plain; charset=utf-8"}
	nosniff        = []string{"nosniff"}
	publishedAtKey = http.CanonicalHeaderKey(PublishedAtHeader)

	notFound = textError(http.StatusNotFound, "404 page not found", nil)
)

// textError is the answer http.Error(w, msg, status) writes, with
// retryAfter as its Retry-After value.
func textError(status int, msg string, retryAfter []string) Answer {
	return Answer{Status: status, ContentType: textPlain, Nosniff: nosniff, RetryAfter: retryAfter, Body: []byte(msg + "\n")}
}

// Answer answers one payload request in-process: the call the cluster
// router makes on the owning shard, with the Ref it has already parsed,
// instead of an HTTP round trip. It is Handler's payload route without the
// wire: the live-edge gate (425), admission control (503), the response
// cache (404 when the store does not hold the payload), the live publish
// stamp, and the request counted on ref's kind endpoint — its latency
// without a wire write, its bytes the body's. The admission slot is
// released before Answer returns. ref is an address ParseRefPath returned.
func (s *Service) Answer(ref Ref) Answer { return s.serve(nil, ref) }

// serve answers ref and records it on its kind's endpoint. With a non-nil
// w it writes the answer there, inside the admission slot (a slow client
// holds its slot through the body write) and counts the bytes written.
func (s *Service) serve(w http.ResponseWriter, ref Ref) Answer {
	e := s.endpoints[ref.Kind]
	e.inFlight.Inc()
	defer e.inFlight.Dec()
	start := time.Now()
	a := s.admit(ref)
	if a.Status == 0 {
		defer s.release()
		a = s.payload(ref)
	}
	n := len(a.Body)
	if w != nil {
		var err error
		if n, err = a.Write(w); err != nil {
			// Nothing to send the client anymore, but a half-delivered
			// segment is exactly what the fetch layer's retries mask —
			// surface it in the metrics instead of dropping it.
			e.writeErrors.Inc()
		}
	}
	e.observe(a.Status, int64(n), time.Since(start))
	return a
}

// admit puts ref through the live-edge gate and admission control. It
// returns the zero Answer when ref may be served, holding an in-flight slot
// the caller must release, and otherwise what to answer: 425 Too Early for
// a segment at or past a live stream's edge (with a Retry-After hint when
// the next publish is ≥ 1 s out; sub-second schedules leave the pacing to
// client backoff), 503 + Retry-After when the in-flight cap is reached.
// Segments past a live stream's end fall through to the normal 404; non-live
// videos always pass the gate, and every request passes when no cap is set.
func (s *Service) admit(ref Ref) Answer {
	if ls := s.liveStream(ref.Video); ls != nil && ref.Seg < ls.Segments() && ref.Seg >= ls.Edge() {
		s.tooEarly.Inc()
		var retry []string
		if secs := ls.RetryAfterSeconds(ref.Seg); secs >= 1 {
			retry = []string{strconv.Itoa(secs)}
		}
		return textError(http.StatusTooEarly, "segment not yet published (live edge)", retry)
	}
	if s.inflight == nil {
		return Answer{}
	}
	select {
	case s.inflight <- struct{}{}:
		return Answer{}
	default:
		s.throttled.Inc()
		return s.overCap
	}
}

// payload answers an admitted request: the response cache's 200 (hot
// payloads skip the store read and its copy; concurrent identical misses
// coalesce into one load), stamped when it is a published live segment, or
// a 404 when the store does not hold the payload.
func (s *Service) payload(ref Ref) Answer {
	a, _, err := s.cache.Get(ref, func() (Answer, error) {
		if d := time.Duration(s.storeDelay.Load()); d > 0 {
			time.Sleep(d)
		}
		data, meta, ok := s.store.Get(ref.StoreKey())
		if !ok {
			return Answer{}, errNotStored
		}
		if ref.Kind == FOVMeta {
			data = meta
		}
		return Answer{
			Status:        http.StatusOK,
			ContentType:   octetStream,
			ContentLength: []string{strconv.Itoa(len(data))},
			Body:          data,
		}, nil
	})
	if err != nil {
		return notFound
	}
	s.stampLive(&a, ref)
	return a
}

// stampLive adds the publish timestamp to the answer of a published live
// segment and observes server-side time-behind-live.
func (s *Service) stampLive(a *Answer, ref Ref) {
	ls := s.liveStream(ref.Video)
	if ls == nil {
		return
	}
	ns, ok := ls.PublishedAtNs(ref.Seg)
	if !ok {
		return
	}
	a.PublishedAt = []string{strconv.FormatInt(ns, 10)}
	s.liveBehind.Observe(float64(ls.Clock().Now().UnixNano()-ns) / 1e9)
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
