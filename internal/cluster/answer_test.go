package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"evr/internal/server"
	"evr/internal/store"
)

// diffEnv is one store served three ways: a single Service, and a 2-shard
// router with the edge tier on and with it off. It holds the tiled test
// video and a live stream ("LIVE") on a virtual clock whose edge stands at
// segment 1, so segment 0 is a stamped live 200 and segment 1 a 425. Every
// service admits one payload request at a time.
type diffEnv struct {
	single   *server.Service
	singleH  http.Handler
	routers  [2]*Cluster // edge on, edge off
	handlers [2]http.Handler
}

func newDiffEnv(tb testing.TB) *diffEnv {
	tb.Helper()
	st := store.New()
	svcOpts := server.DefaultServiceOptions()
	svcOpts.MaxInFlight = 1
	e := &diffEnv{single: server.NewServiceOpts(st, svcOpts)}
	man, err := e.single.IngestVideo(clusterSpec(), tiledClusterIngest())
	if err != nil {
		tb.Fatal(err)
	}
	for i, edgeBytes := range []int64{1 << 20, -1} {
		opts := DefaultOptions()
		opts.EdgeCacheBytes = edgeBytes
		opts.Shard = svcOpts
		if e.routers[i], err = New(st, opts); err != nil {
			tb.Fatal(err)
		}
		e.routers[i].Publish(man)
	}

	live := clusterSpec()
	live.Name = "LIVE"
	cfg := clusterIngest()
	clock := server.NewVirtualClock(time.Unix(1000, 0))
	cfg.Live = &server.LiveOptions{SegmentInterval: 10 * time.Second, Clock: clock}
	ls, err := server.NewLiveStream(live, cfg, st)
	if err != nil {
		tb.Fatal(err)
	}
	e.single.ServeLive(ls)
	for _, c := range e.routers {
		c.ServeLive(ls)
	}
	if err := ls.Start(); err != nil {
		tb.Fatal(err)
	}
	advance := func() {
		clock.Advance(10 * time.Second)
		for want, deadline := ls.Edge()+1, time.Now().Add(5*time.Second); ls.Edge() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				tb.Fatalf("live edge stuck at %d", ls.Edge())
			}
		}
	}
	advance()
	tb.Cleanup(func() {
		for ls.Edge() < ls.Segments() {
			advance()
		}
		if err := ls.Wait(); err != nil {
			tb.Error(err)
		}
	})

	e.singleH = e.single.Handler()
	for i, c := range e.routers {
		e.handlers[i] = c.Handler()
	}
	return e
}

// stallWriter is a ResponseWriter whose body write blocks until release
// is closed: the request writing through it holds its admission slot.
type stallWriter struct {
	header           http.Header
	entered, release chan struct{}
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Write(b []byte) (int, error) {
	close(w.entered)
	<-w.release
	return len(b), nil
}

// saturate takes the one admission slot of the single service and of
// every shard of router i, and returns the function that gives them back.
func (e *diffEnv) saturate(i int) func() {
	hs := []http.Handler{e.singleH}
	for s := range e.routers[i].shards {
		hs = append(hs, e.routers[i].shards[s].handler)
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	for _, h := range hs {
		w := &stallWriter{header: make(http.Header), entered: make(chan struct{}), release: release}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v/CLUSTER/orig/0", nil))
		}()
		<-w.entered
	}
	return func() { close(release); wg.Wait() }
}

// serveOn runs one request through h and returns the recorder.
func serveOn(h http.Handler, r *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// sameAnswer reports how a routed answer differs from the single
// service's — status, body, every header but X-Evr-Edge — or "".
func sameAnswer(routed, single *httptest.ResponseRecorder) string {
	h := routed.Header().Clone()
	delete(h, "X-Evr-Edge")
	if routed.Code != single.Code || routed.Body.String() != single.Body.String() || !reflect.DeepEqual(h, single.Header()) {
		return "router " + describe(routed.Code, h, routed.Body.String()) + ", single service " +
			describe(single.Code, single.Header(), single.Body.String())
	}
	return ""
}

func describe(code int, h http.Header, body string) string {
	if len(body) > 40 {
		body = body[:40] + "…"
	}
	return fmt.Sprintf("%d %v %q", code, h, body)
}

// diffCases are the answers TestRouterAnswersAsSingleService compares:
// a 200 of every Kind, the 404s of an unknown video, a missing store key
// and an unknown manifest, a 400, the live 425 and stamped live 200, and a
// 503 from a saturated service; header is one the single service's answer
// must carry.
var diffCases = []struct {
	name, path string
	want       int
	header     string
	saturated  bool
}{
	{"orig", "/v/CLUSTER/orig/0", 200, "Content-Length", false},
	{"fov", "/v/CLUSTER/fov/0/0", 200, "Content-Length", false},
	{"fovmeta", "/v/CLUSTER/fovmeta/0/0", 200, "Content-Length", false},
	{"tile", "/v/CLUSTER/tile/0/1/1", 200, "Content-Length", false},
	{"tilelow", "/v/CLUSTER/tilelow/0", 200, "Content-Length", false},
	{"unknown video", "/v/Nope/orig/0", 404, "X-Content-Type-Options", false},
	{"missing key", "/v/CLUSTER/orig/99", 404, "X-Content-Type-Options", false},
	{"unknown manifest", "/v/Nope/manifest", 404, "X-Content-Type-Options", false},
	{"non-canonical index", "/v/CLUSTER/orig/007", 400, "X-Content-Type-Options", false},
	{"live edge", "/v/LIVE/orig/1", 425, "Retry-After", false},
	{"live", "/v/LIVE/orig/0", 200, server.PublishedAtHeader, false},
	{"shed", "/v/CLUSTER/fov/1/0", 503, "Retry-After", true},
}

// shardCounters reads every shard's endpoint counters from its /metrics.
func shardCounters(t *testing.T, c *Cluster) []map[string][3]int64 {
	t.Helper()
	var out []map[string][3]int64
	for i := range c.shards {
		var snap server.MetricsSnapshot
		if err := json.Unmarshal(get(c.Shard(i).Handler(), "/metrics").Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		m := make(map[string][3]int64)
		for name, e := range snap.Endpoints {
			m[name] = [3]int64{e.Requests, e.Errors, e.Bytes}
		}
		out = append(out, m)
	}
	return out
}

// counterDelta is after − before per endpoint, non-zero entries only.
func counterDelta(before, after map[string][3]int64) map[string][3]int64 {
	d := make(map[string][3]int64)
	for name, a := range after {
		b := before[name]
		if v := [3]int64{a[0] - b[0], a[1] - b[1], a[2] - b[2]}; v != ([3]int64{}) {
			d[name] = v
		}
	}
	return d
}

// TestRouterAnswersAsSingleService: for every diffCases answer, the router
// — edge on (a miss, then again) and edge off — sends what a single
// Service over the same store sends: status, body and every header except
// X-Evr-Edge, so Content-Length, the live stamp, Retry-After and the error
// answers' nosniff all survive routing. A shard's endpoint counters
// (requests, errors, bytes) move the same whether the request was routed
// to it or sent to it straight.
func TestRouterAnswersAsSingleService(t *testing.T) {
	e := newDiffEnv(t)
	for _, tc := range diffCases {
		for i, h := range e.handlers {
			var release func()
			if tc.saturated {
				release = e.saturate(i)
			}
			want := serveOn(e.singleH, httptest.NewRequest(http.MethodGet, tc.path, nil))
			if want.Code != tc.want || want.Header().Get(tc.header) == "" {
				t.Errorf("%s: single service answered %d without %s, want %d with it", tc.name, want.Code, tc.header, tc.want)
			}
			for rep := 0; rep < 2-i; rep++ {
				got := serveOn(h, httptest.NewRequest(http.MethodGet, tc.path, nil))
				if diff := sameAnswer(got, want); diff != "" {
					t.Errorf("%s (edge on %v, request %d): %s", tc.name, i == 0, rep, diff)
				}
			}
			if release != nil {
				release()
			}
		}
	}

	c := e.routers[1]
	for _, tc := range diffCases {
		if tc.saturated {
			continue
		}
		before, forwarded := shardCounters(t, c), c.Stats().Shards
		serveOn(e.handlers[1], httptest.NewRequest(http.MethodGet, tc.path, nil))
		mid := shardCounters(t, c)
		for i, sh := range c.Stats().Shards {
			routed := counterDelta(before[i], mid[i])
			if sh.Requests == forwarded[i].Requests {
				if len(routed) != 0 {
					t.Errorf("%s: shard %d counters moved %v, but the router forwarded it nothing", tc.name, i, routed)
				}
				continue // answered by the router itself, or by another shard
			}
			serveOn(c.shards[i].handler, httptest.NewRequest(http.MethodGet, tc.path, nil))
			if direct := counterDelta(mid[i], shardCounters(t, c)[i]); len(direct) == 0 || !reflect.DeepEqual(routed, direct) {
				t.Errorf("%s: shard %d counters moved %v routed, %v straight", tc.name, i, routed, direct)
			}
		}
	}
}

// FuzzRouterMatchesService: for any method and path — and, when saturated
// is set, with every service's one admission slot taken — Cluster.Handler
// answers what a single Service.Handler over the same store answers:
// status, body and headers, X-Evr-Edge excluded. The router's own /metrics
// and /healthz are skipped; a saturated request runs on the edge-off
// router only (the edge tier rightly answers a resident payload however
// loaded the shards are). Seeds: the front cases, plus the 425, 503 and
// live cases.
func FuzzRouterMatchesService(f *testing.F) {
	for _, tc := range frontCases {
		f.Add(tc.method, tc.path, false)
	}
	for _, tc := range diffCases {
		f.Add(http.MethodGet, tc.path, tc.saturated)
	}
	e := newDiffEnv(f)
	own := e.routers[0].mux()
	f.Fuzz(func(t *testing.T, method, path string, saturated bool) {
		req := func() *http.Request {
			r, err := http.NewRequest(method, "http://evr.test"+path, nil)
			if err != nil || len(path) == 0 || path[0] != '/' {
				return nil
			}
			return r
		}
		r := req()
		if r == nil {
			return
		}
		if _, pattern := own.Handler(r); pattern == "GET /metrics" || pattern == "GET /healthz" {
			return
		}
		routers := []int{0, 1}
		if saturated {
			routers = routers[1:]
		}
		for _, i := range routers {
			var release func()
			if saturated {
				release = e.saturate(i)
			}
			want := serveOn(e.singleH, req())
			got := serveOn(e.handlers[i], req())
			if release != nil {
				release()
			}
			if diff := sameAnswer(got, want); diff != "" {
				t.Errorf("%s %q (edge on %v, saturated %v): %s", method, path, i == 0, saturated, diff)
			}
		}
	})
}

// TestRouterDeclaresContentLength: a payload over net/http's 2 kB chunking
// buffer reaches a client through the router with its Content-Length, not
// chunked — on the routed miss and on the edge hit — as it does from a
// shard alone, so the client's advertised-length cap and one-buffer read
// apply behind a cluster too.
func TestRouterDeclaresContentLength(t *testing.T) {
	c := newTestCluster(t, 2, 1<<20)
	big := make([]byte, 20000)
	for i := range big {
		big[i] = byte(i)
	}
	if err := c.Store().Put(server.Ref{Video: "BIG", Kind: server.Orig}.StoreKey(), big, nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	shard := httptest.NewServer(c.Shard(0).Handler())
	defer shard.Close()
	for _, tc := range []struct{ name, url, edge string }{
		{"shard alone", shard.URL, ""},
		{"routed miss", srv.URL, "miss"},
		{"edge hit", srv.URL, "hit"},
	} {
		resp, err := http.Get(tc.url + "/v/BIG/orig/0")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) != len(big) || resp.Header.Get("X-Evr-Edge") != tc.edge {
			t.Fatalf("%s: status %d, %d bytes, X-Evr-Edge %q", tc.name, resp.StatusCode, len(body), resp.Header.Get("X-Evr-Edge"))
		}
		if resp.ContentLength != int64(len(big)) || slices.Contains(resp.TransferEncoding, "chunked") {
			t.Errorf("%s: ContentLength %d, TransferEncoding %v; want %d, not chunked", tc.name, resp.ContentLength, resp.TransferEncoding, len(big))
		}
	}
}

// TestUnroutedTierIsItsService: a Shards-0 tier is one server.Service with
// nothing in front of it. Over the same store, its Handler answers the
// catalog, a manifest, every payload kind (a miss, then a response-cache
// hit), the error answers and /healthz as a plain Service does, status,
// body and every header, with no X-Evr-Edge; /metrics is the service's
// own, JSON and Prometheus text alike, equal once the request timings are
// set aside. Stats report that one shard's response-cache and admission
// counters and neither router nor edge, and no shard can be killed.
func TestUnroutedTierIsItsService(t *testing.T) {
	st := store.New()
	tier, err := New(st, Options{Shard: server.DefaultServiceOptions()})
	if err != nil {
		t.Fatal(err)
	}
	man, err := tier.Ingest(clusterSpec(), tiledClusterIngest())
	if err != nil {
		t.Fatal(err)
	}
	svc := server.NewService(st)
	svc.Publish(man)
	th, sh := tier.Handler(), svc.Handler()

	paths := []string{"/videos", "/v/CLUSTER/manifest", "/healthz"}
	kinds := map[string]bool{}
	for _, tc := range diffCases {
		if !tc.saturated && !strings.HasPrefix(tc.path, "/v/LIVE/") {
			paths = append(paths, tc.path)
			kinds[strings.Split(tc.path, "/")[3]] = true
		}
	}
	if len(kinds) != len(server.Kinds)+1 { // + the manifest route's word
		t.Fatalf("paths cover %d payload kinds of %d: %v", len(kinds)-1, len(server.Kinds), kinds)
	}
	for round := 0; round < 2; round++ {
		for _, path := range paths {
			got, want := get(th, path), get(sh, path)
			if edge := got.Header().Values("X-Evr-Edge"); len(edge) != 0 {
				t.Errorf("%s: unrouted tier sent X-Evr-Edge %v", path, edge)
			}
			if diff := sameAnswer(got, want); diff != "" {
				t.Errorf("%s (round %d): %s", path, round, diff)
			}
		}
	}

	var gotSnap, wantSnap server.MetricsSnapshot
	for _, m := range []struct {
		h    http.Handler
		snap *server.MetricsSnapshot
	}{{th, &gotSnap}, {sh, &wantSnap}} {
		rec := get(m.h, "/metrics")
		if err := json.Unmarshal(rec.Body.Bytes(), m.snap); err != nil {
			t.Fatalf("/metrics: %v: %s", err, rec.Body.String())
		}
		m.snap.UptimeSeconds = 0
		for _, e := range m.snap.Endpoints {
			e.TotalMs, e.MaxMs, e.P50Ms, e.P95Ms, e.P99Ms = 0, 0, 0, 0, 0
		}
	}
	if !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Errorf("/metrics JSON: tier %+v, service %+v", gotSnap, wantSnap)
	}
	untimed := func(h http.Handler) string {
		rec := get(h, "/metrics?format=prom")
		lines := strings.Split(rec.Header().Get("Content-Type")+"\n"+rec.Body.String(), "\n")
		return strings.Join(slices.DeleteFunc(lines, func(l string) bool {
			return strings.Contains(l, "evr_http_request_seconds")
		}), "\n")
	}
	if got, want := untimed(th), untimed(sh); got != want || !strings.Contains(got, "evr_http_requests_total") {
		t.Errorf("/metrics?format=prom, timings aside: tier\n%s\nservice\n%s", got, want)
	}

	stats := tier.Stats()
	rc, _ := tier.Shard(0).RespCacheStats()
	if stats.Router != nil || stats.Edge != nil || len(stats.Shards) != 1 {
		t.Fatalf("Stats = %+v, want one shard and no router or edge", stats)
	}
	if sh := stats.Shards[0]; !sh.Alive || sh.RespCache == nil || *sh.RespCache != rc || rc.Hits == 0 || sh.Throttled != tier.Shard(0).Throttled() {
		t.Errorf("shard stats %+v, want alive with respcache %+v (hits > 0), %d throttled", sh, rc, tier.Shard(0).Throttled())
	}
	if err := tier.KillShard(0); err == nil {
		t.Error("KillShard on an unrouted tier accepted")
	}
	if err := tier.RestartShard(0); err == nil {
		t.Error("RestartShard on an unrouted tier accepted")
	}
}
