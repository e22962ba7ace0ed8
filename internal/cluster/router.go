package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"evr/internal/cache"
	"evr/internal/server"
)

// Handler returns the router's HTTP surface — the same API a single
// server.Service exposes (DESIGN §10 "Payload address"), so clients (and the
// golden-playback gate) can point at a cluster without knowing it is one. The
// catalog and manifests come from any live shard; every payload route goes
// through the edge cache, then to the shard owning its (video, segment);
// /metrics is the router + edge + per-shard snapshot and /healthz the router's
// liveness and live shard count. A canonical payload request skips the mux
// (server.Front) and reaches serveRef with its parsed address, which is all
// the owning shard is handed: its answer is one in-process call
// (server.Service.Answer), not a second HTTP request. A Shards-0 tier has
// no router: its Handler is its one service's own.
func (c *Cluster) Handler() http.Handler {
	if c.opts.Shards == 0 {
		return c.shards[0].handler
	}
	return server.Front(c.mux(), func(w http.ResponseWriter, _ *http.Request, key server.Ref) {
		c.requests.Inc()
		c.serveRef(w, key)
	})
}

// mux is the router's ServeMux: every route Handler serves, the payload
// routes behind the shards' own canonical-address gate.
func (c *Cluster) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", c.serveMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{"ok": true, "shards": len(c.shards), "live": len(c.currentRing().shards())})
	})
	mux.HandleFunc("GET /videos", c.proxyAny)
	mux.HandleFunc("GET /v/{video}/manifest", c.proxyAny)
	for k := range server.Kinds {
		mux.HandleFunc(server.Kind(k).Pattern(), c.serveKeyed)
	}
	return mux
}

// serveKeyed is a payload route of the mux: it puts the request through the
// same canonical-address gate the shards apply, so every edge key is the one
// spelling of its payload and a malformed request is answered here, without
// costing a shard a request.
func (c *Cluster) serveKeyed(w http.ResponseWriter, r *http.Request) {
	c.requests.Inc()
	if key, ok := server.ParseRef(w, r); ok {
		c.serveRef(w, key)
	}
}

// serveRef answers one payload request from the edge tier, routing it to
// the owning shard — once per concurrent wave — when it is not resident.
// Uncacheable responses pass through to everyone waiting on them. Tiles
// route on (video, seg) — the ring position of the segment's other payload
// kinds — so a single shard owns every tile of a segment and its respcache
// sees the segment's whole tile working set.
func (c *Cluster) serveRef(w http.ResponseWriter, key server.Ref) {
	resp, outcome, err := c.edge.Get(key, func() (*edgeResp, error) {
		resp := c.route(key)
		if !resp.cacheable() {
			return resp, errPassThrough
		}
		return resp, nil
	})
	if errors.Is(err, cache.ErrLoadPanicked) {
		// The request this one was waiting on panicked inside its shard;
		// answer a retryable error rather than nothing.
		resp = &shardFailed
	}
	writeResp(w, resp, outcome == cache.Hit)
}

// capture is the in-process ResponseWriter proxyAny hands a shard's
// handler: it buffers the whole response so the router can replay it, or
// discard it and re-route.
type capture struct {
	status int
	header http.Header
	body   []byte
}

func newCapture() *capture { return &capture{header: make(http.Header)} }

func (cp *capture) Header() http.Header { return cp.header }

func (cp *capture) WriteHeader(code int) {
	if cp.status == 0 {
		cp.status = code
	}
}

func (cp *capture) Write(b []byte) (int, error) {
	cp.WriteHeader(http.StatusOK)
	cp.body = append(cp.body, b...)
	return len(b), nil
}

// firstValue keeps a header entry's first value, the one Header.Get reads,
// as a slice Answer.Write can assign without copying; nil when Get reads "".
func firstValue(v []string) []string {
	if len(v) == 0 || v[0] == "" {
		return nil
	}
	return v[:1:1]
}

// answer returns the captured response as an Answer: the status (200 when
// nothing was written), every header an Answer carries, and the body.
func (cp *capture) answer() server.Answer {
	cp.WriteHeader(http.StatusOK)
	return server.Answer{
		Status:        cp.status,
		ContentType:   firstValue(cp.header["Content-Type"]),
		Nosniff:       firstValue(cp.header["X-Content-Type-Options"]),
		ContentLength: firstValue(cp.header["Content-Length"]),
		RetryAfter:    firstValue(cp.header["Retry-After"]),
		PublishedAt:   firstValue(cp.header[publishedAtKey]),
		Body:          cp.body,
	}
}

// forward asks shard si for one answer in-process. ok is false when the
// shard is (or went) down — an answer from a shard that was killed
// mid-request is discarded, because a real dead replica's bytes never make
// it onto the wire either; the caller re-routes.
func (c *Cluster) forward(si int, ask func(*shard) server.Answer) (*edgeResp, bool) {
	sh := c.shards[si]
	if sh.down.Load() {
		return nil, false
	}
	a := ask(sh)
	if sh.down.Load() {
		return nil, false
	}
	sh.requests.Inc()
	if a.Status == http.StatusServiceUnavailable {
		sh.shed.Inc()
		c.shedForwarded.Inc()
	}
	return &edgeResp{Answer: a, owner: si}, true
}

// textError is the answer http.Error(w, msg, status) writes, from no shard.
func textError(status int, msg string) edgeResp {
	cp := newCapture()
	http.Error(cp, msg, status)
	return edgeResp{Answer: cp.answer(), owner: -1}
}

var (
	// noShardResp is what the router sheds when the ring is empty (or every
	// candidate died mid-request): a 503 with a Retry-After hint, the same
	// shape as shard admission control, so the client fetch layer backs off
	// and retries instead of failing the session.
	noShardResp = func() edgeResp {
		resp := textError(http.StatusServiceUnavailable, "no live shard")
		resp.RetryAfter = []string{"1"}
		return resp
	}()
	// shardFailed answers the requests that joined a routed load whose
	// shard panicked.
	shardFailed = textError(http.StatusInternalServerError, "shard handler failed")
)

// route forwards a payload request to the shard owning (video, seg),
// walking the ring past dead shards. The response records the shard that
// served it (owner -1 when nothing could). The ring snapshot is re-read on
// every attempt so a concurrent kill's rebuild takes effect mid-loop.
func (c *Cluster) route(key server.Ref) *edgeResp {
	for attempt := 0; attempt <= len(c.shards); attempt++ {
		ring := c.currentRing()
		si := ring.ownerSkipping(segKey(key.Video, key.Seg), func(i int) bool { return c.shards[i].down.Load() })
		if si < 0 {
			c.noShard.Inc()
			return &noShardResp
		}
		if resp, ok := c.forward(si, func(sh *shard) server.Answer { return sh.answer(key) }); ok {
			return resp
		}
		// The owner died between lookup and forward: the rebuilt ring (or
		// the skip predicate) picks its successor next time around.
		c.rerouted.Inc()
	}
	c.noShard.Inc()
	return &noShardResp
}

// proxyAny serves an unkeyed endpoint (catalog, manifest) from any live
// shard, round-robin. Every replica publishes every manifest, so any
// answer is the answer.
func (c *Cluster) proxyAny(w http.ResponseWriter, r *http.Request) {
	c.requests.Inc()
	live := c.currentRing().shards()
	if len(live) == 0 {
		writeResp(w, &noShardResp, false)
		c.noShard.Inc()
		return
	}
	start := int(c.rrNext.Add(1))
	for n := 0; n < len(live); n++ {
		si := live[(start+n)%len(live)]
		if resp, ok := c.forward(si, func(sh *shard) server.Answer {
			cp := newCapture()
			sh.handler.ServeHTTP(cp, r)
			return cp.answer()
		}); ok {
			writeResp(w, resp, false)
			return
		}
		c.rerouted.Inc()
	}
	c.noShard.Inc()
	writeResp(w, &noShardResp, false)
}

// Header keys and values the router assigns straight into a header map,
// under their canonical keys (no per-request canonicalisation or value
// slice). A shared value slice is never modified in place: a later Set or
// Add replaces it.
var (
	publishedAtKey = http.CanonicalHeaderKey(server.PublishedAtHeader)
	edgeHit        = []string{"hit"}
	edgeMiss       = []string{"miss"}
)

// writeResp replays a routed (or edge-cached) response onto the wire. The
// X-EVR-Edge header makes the serving tier observable per response —
// load-test assertions and debugging read it; clients ignore it.
func writeResp(w http.ResponseWriter, resp *edgeResp, hit bool) {
	if hit {
		w.Header()["X-Evr-Edge"] = edgeHit
	} else {
		w.Header()["X-Evr-Edge"] = edgeMiss
	}
	resp.Write(w) //nolint:errcheck // client hung up; nothing to tell it
}

// serveMetrics serves the cluster snapshot as JSON, or the router registry
// in Prometheus text exposition with ?format=prom. Per-shard service
// registries stay on the shards (scrape a shard's own /metrics through
// Shard(i) for endpoint-level detail).
func (c *Cluster) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.reg.WritePrometheus(w) //nolint:errcheck // client hung up mid-scrape
		return
	}
	writeJSON(w, c.Stats())
}

// writeJSON buffers the encode before touching the wire, as the server's
// handlers do.
func writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, fmt.Sprintf("encoding response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	buf = append(buf, '\n')
	w.Write(buf) //nolint:errcheck // client hung up; nothing to tell it
}
