package cluster

import (
	"bytes"
	"encoding/json"
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
// liveness and live shard count.
func (c *Cluster) Handler() http.Handler {
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

// serveKeyed answers one payload request from the edge tier, routing it to
// the owning shard — once per concurrent wave — when it is not resident.
// Uncacheable responses pass through to everyone waiting on them. The path
// goes through the same canonical-address gate the shards apply, so every
// edge key is the one spelling of its payload and a malformed request is
// answered here, without costing a shard a request. Tiles route on (video,
// seg) — the ring position of the segment's other payload kinds — so a single
// shard owns every tile of a segment and its respcache sees the segment's
// whole tile working set.
func (c *Cluster) serveKeyed(w http.ResponseWriter, r *http.Request) {
	c.requests.Inc()
	key, ok := server.ParseRef(w, r)
	if !ok {
		return
	}
	resp, outcome, _ := c.edge.Get(key, func() (*edgeResp, error) {
		resp := c.route(key.Video, key.Seg, r)
		if !resp.cacheable() {
			return resp, errPassThrough
		}
		return resp, nil
	})
	if resp == nil {
		// The request this one was waiting on panicked inside its shard
		// handler; answer a retryable error rather than nothing.
		resp = &edgeResp{status: http.StatusInternalServerError, body: []byte("shard handler failed\n"), owner: -1}
	}
	writeResp(w, resp, outcome == cache.Hit)
}

// capture is the in-process ResponseWriter the router hands a shard
// handler: it buffers the whole response so the router can cache it,
// replay it, or discard it and re-route.
type capture struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newCapture() *capture { return &capture{header: make(http.Header)} }

func (cp *capture) Header() http.Header { return cp.header }

func (cp *capture) WriteHeader(code int) {
	if cp.status == 0 {
		cp.status = code
	}
}

func (cp *capture) Write(b []byte) (int, error) {
	if cp.status == 0 {
		cp.status = http.StatusOK
	}
	return cp.body.Write(b)
}

// resp converts the captured response into the router's envelope.
func (cp *capture) resp() *edgeResp {
	status := cp.status
	if status == 0 {
		status = http.StatusOK // handler wrote nothing: empty 200
	}
	return &edgeResp{
		status:      status,
		contentType: cp.header.Get("Content-Type"),
		retryAfter:  cp.header.Get("Retry-After"),
		publishedAt: cp.header.Get(server.PublishedAtHeader),
		body:        cp.body.Bytes(),
	}
}

// forward runs one request against one shard in-process. ok is false when
// the shard is (or went) down — a response captured from a shard that was
// killed mid-request is discarded, because a real dead replica's bytes
// never make it onto the wire either; the caller re-routes.
func (c *Cluster) forward(si int, r *http.Request) (*edgeResp, bool) {
	sh := c.shards[si]
	if sh.down.Load() {
		return nil, false
	}
	cp := newCapture()
	sh.handler.ServeHTTP(cp, r)
	if sh.down.Load() {
		return nil, false
	}
	sh.requests.Inc()
	resp := cp.resp()
	resp.owner = si
	if resp.status == http.StatusServiceUnavailable {
		sh.shed.Inc()
		c.shedForwarded.Inc()
	}
	return resp, true
}

// noShardResp is what the router sheds when the ring is empty (or every
// candidate died mid-request): a 503 with a Retry-After hint, the same
// shape as shard admission control, so the client fetch layer backs off
// and retries instead of failing the session.
func noShardResp() *edgeResp {
	return &edgeResp{
		status:     http.StatusServiceUnavailable,
		retryAfter: "1",
		body:       []byte("no live shard\n"),
		owner:      -1,
	}
}

// route forwards a segment request to the shard owning (video, seg),
// walking the ring past dead shards. The response records the shard that
// served it (owner -1 when nothing could). The ring snapshot is re-read on
// every attempt so a concurrent kill's rebuild takes effect mid-loop.
func (c *Cluster) route(video string, seg int, r *http.Request) *edgeResp {
	for attempt := 0; attempt <= len(c.shards); attempt++ {
		ring := c.currentRing()
		si := ring.ownerSkipping(segKey(video, seg), func(i int) bool { return c.shards[i].down.Load() })
		if si < 0 {
			c.noShard.Inc()
			return noShardResp()
		}
		if resp, ok := c.forward(si, r); ok {
			return resp
		}
		// The owner died between lookup and forward: the rebuilt ring (or
		// the skip predicate) picks its successor next time around.
		c.rerouted.Inc()
	}
	c.noShard.Inc()
	return noShardResp()
}

// proxyAny serves an unkeyed endpoint (catalog, manifest) from any live
// shard, round-robin. Every replica publishes every manifest, so any
// answer is the answer.
func (c *Cluster) proxyAny(w http.ResponseWriter, r *http.Request) {
	c.requests.Inc()
	live := c.currentRing().shards()
	if len(live) == 0 {
		writeResp(w, noShardResp(), false)
		c.noShard.Inc()
		return
	}
	start := int(c.rrNext.Add(1))
	for n := 0; n < len(live); n++ {
		si := live[(start+n)%len(live)]
		if resp, ok := c.forward(si, r); ok {
			writeResp(w, resp, false)
			return
		}
		c.rerouted.Inc()
	}
	c.noShard.Inc()
	writeResp(w, noShardResp(), false)
}

// writeResp replays a routed (or edge-cached) response onto the wire. The
// X-EVR-Edge header makes the serving tier observable per response —
// load-test assertions and debugging read it; clients ignore it.
func writeResp(w http.ResponseWriter, resp *edgeResp, edgeHit bool) {
	if resp.contentType != "" {
		w.Header().Set("Content-Type", resp.contentType)
	}
	if resp.retryAfter != "" {
		w.Header().Set("Retry-After", resp.retryAfter)
	}
	if resp.publishedAt != "" {
		w.Header().Set(server.PublishedAtHeader, resp.publishedAt)
	}
	if edgeHit {
		w.Header().Set("X-EVR-Edge", "hit")
	} else {
		w.Header().Set("X-EVR-Edge", "miss")
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body) //nolint:errcheck // client hung up; nothing to tell it
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
