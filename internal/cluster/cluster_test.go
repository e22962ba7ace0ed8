package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"evr/internal/cache"
	"evr/internal/client"
	"evr/internal/frame"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
	"evr/internal/telemetry"
)

// clusterSpec is a tiny deterministic video, cheap enough to ingest per
// test and route under -race.
func clusterSpec() scene.VideoSpec {
	return scene.VideoSpec{
		Name:     "CLUSTER",
		Duration: 4,
		FPS:      30,
		Objects: []scene.ObjectSpec{{
			ID: 0, BaseYaw: 0.3, BasePitch: 0.1, DriftYaw: 0.2,
			Radius: 0.35, Color: [3]byte{40, 220, 40},
		}},
		Complexity: 0.3,
	}
}

func clusterIngest() server.IngestConfig {
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 48, 24
	cfg.FOVW, cfg.FOVH = 16, 16
	cfg.MaxSegments = 4
	cfg.Codec.SearchRange = 1
	return cfg
}

// newTestCluster builds an n-shard cluster with the test video ingested.
func newTestCluster(t *testing.T, n int, edgeBytes int64) *Cluster {
	t.Helper()
	opts := DefaultOptions()
	opts.Shards = n
	opts.EdgeCacheBytes = edgeBytes
	c, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(clusterSpec(), clusterIngest()); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return c
}

// get runs one request through a handler and returns the recorder.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// segmentPaths enumerates every payload endpoint of the ingested test
// video, read from the routed manifest.
func segmentPaths(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec := get(h, "/v/CLUSTER/manifest")
	if rec.Code != http.StatusOK {
		t.Fatalf("manifest: status %d: %s", rec.Code, rec.Body.String())
	}
	var man server.Manifest
	if err := json.Unmarshal(rec.Body.Bytes(), &man); err != nil {
		t.Fatalf("parsing manifest: %v", err)
	}
	var paths []string
	for _, seg := range man.Segments {
		paths = append(paths, fmt.Sprintf("/v/CLUSTER/orig/%d", seg.Index))
		for _, cl := range seg.Clusters {
			paths = append(paths,
				fmt.Sprintf("/v/CLUSTER/fov/%d/%d", seg.Index, cl.ID),
				fmt.Sprintf("/v/CLUSTER/fovmeta/%d/%d", seg.Index, cl.ID))
		}
	}
	if len(paths) < 4 {
		t.Fatalf("only %d payload paths — test video too small to exercise routing", len(paths))
	}
	return paths
}

// TestRoutedPlaybackByteIdentical is the tentpole gate: every payload the
// router serves — across shards and the edge tier — is byte-identical to
// what a single server serves for the same ingest.
func TestRoutedPlaybackByteIdentical(t *testing.T) {
	c := newTestCluster(t, 3, 1<<20)
	router := c.Handler()

	single := server.NewServiceOpts(store.New(), server.DefaultServiceOptions())
	if _, err := single.IngestVideo(clusterSpec(), clusterIngest()); err != nil {
		t.Fatalf("single ingest: %v", err)
	}
	ref := single.Handler()

	paths := append([]string{"/videos", "/v/CLUSTER/manifest"}, segmentPaths(t, router)...)
	for _, p := range paths {
		got, want := get(router, p), get(ref, p)
		if got.Code != want.Code {
			t.Errorf("%s: routed status %d, single-server %d", p, got.Code, want.Code)
			continue
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: routed bytes differ from single-server (%d vs %d bytes)",
				p, got.Body.Len(), want.Body.Len())
		}
		if ct := got.Header().Get("Content-Type"); ct != want.Header().Get("Content-Type") {
			t.Errorf("%s: routed Content-Type %q != %q", p, ct, want.Header().Get("Content-Type"))
		}
	}
}

// TestRoutingIsStableAndPartitioned pins cache affinity: repeated requests
// for one key land on one shard, and with enough keys every shard serves
// some of them.
func TestRoutingIsStableAndPartitioned(t *testing.T) {
	c := newTestCluster(t, 3, -1) // no edge tier: every request hits a shard
	router := c.Handler()
	paths := segmentPaths(t, router)

	before := make([]int64, len(c.shards))
	for i, sh := range c.Stats().Shards {
		before[i] = sh.Requests
	}
	const rounds = 4
	for r := 0; r < rounds; r++ {
		for _, p := range paths {
			if rec := get(router, p); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", p, rec.Code)
			}
		}
	}
	// Per-key affinity: each path's shard serves it every round, so shard
	// request deltas are all multiples of rounds.
	touched := 0
	for i, sh := range c.Stats().Shards {
		delta := sh.Requests - before[i]
		if delta%rounds != 0 {
			t.Errorf("%s: %d routed requests not a multiple of %d rounds — key affinity broken",
				sh.Name, delta, rounds)
		}
		if delta > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Errorf("only %d of %d shards served segment traffic — ring not partitioning", touched, len(c.shards))
	}
}

// TestShardKillFailoverChecksumIdentical is the failover gate: kill a
// shard mid-corpus and every payload must still be served, byte-identical,
// by the survivors; restart and it holds again.
func TestShardKillFailoverChecksumIdentical(t *testing.T) {
	c := newTestCluster(t, 3, 1<<20)
	router := c.Handler()
	paths := segmentPaths(t, router)

	baseline := make(map[string][]byte, len(paths))
	for _, p := range paths {
		rec := get(router, p)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d before kill", p, rec.Code)
		}
		baseline[p] = append([]byte(nil), rec.Body.Bytes()...)
	}

	for _, kill := range []int{0, 1} {
		if err := c.KillShard(kill); err != nil {
			t.Fatal(err)
		}
		if live := c.currentRing().shards(); len(live) != 2 {
			t.Fatalf("after killing shard %d: live shards %v", kill, live)
		}
		for _, p := range paths {
			rec := get(router, p)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d with shard %d down", p, rec.Code, kill)
			}
			if !bytes.Equal(rec.Body.Bytes(), baseline[p]) {
				t.Errorf("%s: bytes changed after killing shard %d", p, kill)
			}
		}
		if err := c.RestartShard(kill); err != nil {
			t.Fatal(err)
		}
		if live := c.currentRing().shards(); len(live) != 3 {
			t.Fatalf("after restarting shard %d: live shards %v", kill, live)
		}
		for _, p := range paths {
			rec := get(router, p)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), baseline[p]) {
				t.Errorf("%s: corrupted after restarting shard %d (status %d)", p, kill, rec.Code)
			}
		}
	}
}

// TestShardKillPlaybackPixelsIdentical plays through the router the way a
// user does — manifest, segments, decode, display — before and after a shard
// is killed: every user's displayed frames must be pixel-identical, and the
// router must be running on the surviving shard.
func TestShardKillPlaybackPixelsIdentical(t *testing.T) {
	c := newTestCluster(t, 2, 1<<20)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	play := func(user int) []*frame.Frame {
		t.Helper()
		p := client.NewPlayer(ts.URL)
		p.Workers = 1
		_, frames, err := p.Play("CLUSTER", hmd.NewIMU(headtrace.Generate(clusterSpec(), user)), 2)
		if err != nil {
			t.Fatalf("user %d: %v", user, err)
		}
		return frames
	}
	const users = 3
	before := make([][]*frame.Frame, users)
	for u := range before {
		before[u] = play(u)
	}
	if err := c.KillShard(0); err != nil {
		t.Fatal(err)
	}
	for u := range before {
		after := play(u)
		if len(after) == 0 || len(after) != len(before[u]) {
			t.Fatalf("user %d: %d frames after the kill, %d before", u, len(after), len(before[u]))
		}
		for i := range after {
			if !after[i].Equal(before[u][i]) {
				t.Fatalf("user %d frame %d: pixels differ across the shard kill", u, i)
			}
		}
	}
	st := c.Stats()
	if st.Router.Requests == 0 || st.Router.LiveShards != 1 {
		t.Errorf("cluster stats: %d requests, %d live shards", st.Router.Requests, st.Router.LiveShards)
	}
	if st.Edge == nil || st.Edge.Hits == 0 {
		t.Error("edge cache absorbed nothing across the replayed sessions")
	}
}

// TestEdgeCacheAbsorbsRepeats pins the edge tier: a repeated segment
// request is served at the edge without touching any shard.
func TestEdgeCacheAbsorbsRepeats(t *testing.T) {
	c := newTestCluster(t, 2, 1<<20)
	router := c.Handler()
	const path = "/v/CLUSTER/orig/0"

	first := get(router, path)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d", first.Code)
	}
	if hdr := first.Header().Get("X-EVR-Edge"); hdr != "miss" {
		t.Errorf("first request X-EVR-Edge = %q, want miss", hdr)
	}
	shardReqs := func() int64 {
		var total int64
		for _, sh := range c.Stats().Shards {
			total += sh.Requests
		}
		return total
	}
	before := shardReqs()
	second := get(router, path)
	if second.Code != http.StatusOK {
		t.Fatalf("status %d", second.Code)
	}
	if hdr := second.Header().Get("X-EVR-Edge"); hdr != "hit" {
		t.Errorf("repeat request X-EVR-Edge = %q, want hit", hdr)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("edge-cached bytes differ from routed bytes")
	}
	if got := shardReqs(); got != before {
		t.Errorf("edge hit still touched a shard (%d → %d shard requests)", before, got)
	}
	if st := c.Stats(); st.Edge == nil || st.Edge.Hits == 0 {
		t.Error("edge stats recorded no hit")
	}
}

// TestKillAllShardsShedsThenRecovers pins full-outage behavior: an empty
// ring sheds 503 + Retry-After (clients back off instead of erroring),
// and a restart restores service.
func TestKillAllShardsShedsThenRecovers(t *testing.T) {
	c := newTestCluster(t, 2, -1)
	router := c.Handler()

	for i := 0; i < len(c.shards); i++ {
		if err := c.KillShard(i); err != nil {
			t.Fatal(err)
		}
	}
	rec := get(router, "/v/CLUSTER/orig/0")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("full outage: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("full-outage 503 missing Retry-After")
	}
	if rec := get(router, "/videos"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("full outage catalog: status %d, want 503", rec.Code)
	}
	if st := c.Stats(); st.Router.NoShard == 0 {
		t.Error("no-shard counter did not move during full outage")
	}

	if err := c.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	if rec := get(router, "/v/CLUSTER/orig/0"); rec.Code != http.StatusOK {
		t.Errorf("after restart: status %d, want 200", rec.Code)
	}
}

// TestClusterSoakUnderTopologyChurn hammers the router from many
// goroutines while shards are killed and restarted. Run under -race by
// ci.sh. Every 200 must carry the baseline bytes; 503s are acceptable
// (shed) but corruption never is.
func TestClusterSoakUnderTopologyChurn(t *testing.T) {
	c := newTestCluster(t, 3, 256<<10)
	router := c.Handler()
	paths := segmentPaths(t, router)

	baseline := make(map[string][]byte, len(paths))
	for _, p := range paths {
		rec := get(router, p)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: baseline status %d", p, rec.Code)
		}
		baseline[p] = append([]byte(nil), rec.Body.Bytes()...)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			victim := i % len(c.shards)
			c.KillShard(victim)
			time.Sleep(2 * time.Millisecond)
			c.RestartShard(victim)
			time.Sleep(time.Millisecond)
		}
	}()

	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				p := paths[(w+round)%len(paths)]
				rec := get(router, p)
				switch rec.Code {
				case http.StatusOK:
					if !bytes.Equal(rec.Body.Bytes(), baseline[p]) {
						errs <- fmt.Errorf("%s: corrupted bytes under churn", p)
						return
					}
				case http.StatusServiceUnavailable:
					// Shed during a window with the key's owners down — fine.
				default:
					errs <- fmt.Errorf("%s: status %d under churn", p, rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := c.Stats()
	if st.Router.Requests == 0 {
		t.Fatal("soak routed no requests")
	}
	t.Logf("soak: %d requests, %d rerouted, %d shed, %d no-shard, edge hit rate %.2f",
		st.Router.Requests, st.Router.Rerouted, st.Router.ShedForwarded,
		st.Router.NoShard, st.Edge.HitRate())
}

// TestReingestVisibleThroughRouter pins purge propagation: after a
// re-ingest, the routed path serves the new bytes immediately — no stale
// edge or shard-cache payloads survive.
func TestReingestVisibleThroughRouter(t *testing.T) {
	c := newTestCluster(t, 2, 1<<20)
	router := c.Handler()
	const path = "/v/CLUSTER/orig/0"

	before := get(router, path)
	get(router, path) // ensure the edge holds it
	if before.Code != http.StatusOK {
		t.Fatalf("status %d", before.Code)
	}

	spec := clusterSpec()
	spec.Objects[0].Color = [3]byte{220, 40, 220} // different pixels, same layout
	if _, err := c.Ingest(spec, clusterIngest()); err != nil {
		t.Fatalf("re-ingest: %v", err)
	}
	after := get(router, path)
	if after.Code != http.StatusOK {
		t.Fatalf("status %d after re-ingest", after.Code)
	}
	if bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Error("routed path served stale bytes after re-ingest")
	}
}

// TestRouterAnswersMalformedAddressesItself runs the single server's
// non-canonical and smuggled-index cases (server.TestHandlerStatusCodes)
// through the router: the status is the one a shard would give, and — the
// router parsing with the shards' own gate — no shard is charged a request
// and nothing becomes resident at the edge.
func TestRouterAnswersMalformedAddressesItself(t *testing.T) {
	c := newTestCluster(t, 2, 1<<20)
	router, single := c.Handler(), c.Shard(0).Handler()
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v/CLUSTER/orig/xyz", 400},
		{"/v/CLUSTER/orig/-1", 400},
		{"/v/CLUSTER/orig/+1", 400},
		{"/v/CLUSTER/orig/007", 400},
		{"/v/CLUSTER/orig/12345678901234567890", 400},
		{"/v/CLUSTER/orig/%20", 400},
		{"/v/CLUSTER/fov/0/-2", 400},
		{"/v/CLUSTER/fovmeta/0/zzz", 400},
		{"/v/CLUSTER/tile/0/01/0", 400},
		{"/v/CLUSTER/tile/0/0/+0", 400},
		{"/v/CLUSTER/tilelow/00", 400},
		{"/v/CLUSTER/orig/0%2Fextra", 404},
		{"/v/CLUSTER/fov/0/0%2Fextra", 404},
	} {
		if got := get(single, tc.path).Code; got != tc.want {
			t.Errorf("single server: GET %s = %d, want %d", tc.path, got, tc.want)
		}
		if got := get(router, tc.path).Code; got != tc.want {
			t.Errorf("router: GET %s = %d, want %d", tc.path, got, tc.want)
		}
	}
	st := c.Stats()
	for _, sh := range st.Shards {
		if sh.Requests != 0 {
			t.Errorf("%s was forwarded %d malformed requests, want 0", sh.Name, sh.Requests)
		}
	}
	if st.Edge.Entries != 0 || st.Edge.Misses != 0 {
		t.Errorf("malformed requests reached the edge cache: %+v", *st.Edge)
	}
}

// TestClusterMetricsEndpoints sanity-checks the observability surface.
func TestClusterMetricsEndpoints(t *testing.T) {
	c := newTestCluster(t, 2, 1<<20)
	router := c.Handler()
	get(router, "/v/CLUSTER/orig/0")

	rec := get(router, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	for _, want := range []string{`"router"`, `"edge"`, `"shards"`, `"shard-0"`} {
		if !bytes.Contains(rec.Body.Bytes(), []byte(want)) {
			t.Errorf("/metrics JSON missing %s", want)
		}
	}
	prom := get(router, "/metrics?format=prom")
	for _, want := range []string{promRouterRequests, promEdge + "_hits_total", promRouterShardRequests} {
		if !bytes.Contains(prom.Body.Bytes(), []byte(want)) {
			t.Errorf("prom exposition missing %s", want)
		}
	}
	health := get(router, "/healthz")
	if health.Code != http.StatusOK || !bytes.Contains(health.Body.Bytes(), []byte(`"live":2`)) {
		t.Errorf("/healthz = %d %s", health.Code, health.Body.String())
	}
}

// TestNewRejectsBadOptions pins the constructor edges.
func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(nil, Options{Shards: 0}); err == nil {
		t.Error("Shards=0 accepted")
	}
	c, err := New(nil, Options{Shards: 1, EdgeCacheBytes: -1, Shard: server.DefaultServiceOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if c.edge != nil {
		t.Error("negative EdgeCacheBytes did not disable the edge tier")
	}
	if err := c.KillShard(5); err == nil {
		t.Error("out-of-range KillShard accepted")
	}
	if err := c.RestartShard(-1); err == nil {
		t.Error("out-of-range RestartShard accepted")
	}
}

// routed builds the load a test hands the edge cache: the response a shard
// (owner ≥ 0) would have answered, passed through uncached when it is not a
// live shard's 200 — the same rule serveKeyed applies.
func routed(status int, body string, owner int) func() (*edgeResp, error) {
	return func() (*edgeResp, error) {
		resp := &edgeResp{status: status, body: []byte(body), owner: owner}
		if !resp.cacheable() {
			return resp, errPassThrough
		}
		return resp, nil
	}
}

// TestEdgePurgePredicates pins the edge tier's key-scoped purges (the
// overtaken-flight rule itself is the cache core's, checked there): a video
// purge takes every segment and kind of the video, a segment purge only
// that segment's kinds.
func TestEdgePurgePredicates(t *testing.T) {
	ec := newEdgeCache(1<<20, telemetry.NewRegistry())
	keys := []server.Ref{
		{Video: "V", Seg: 0, Kind: server.Orig},
		{Video: "V", Seg: 0, A: 2, B: 1, Kind: server.Tile},
		{Video: "V", Seg: 1, A: 0, Kind: server.FOV},
		{Video: "W", Seg: 0, Kind: server.Orig},
	}
	fill := func() {
		for _, key := range keys {
			ec.Get(key, routed(http.StatusOK, "body", 0))
		}
	}
	resident := func(key server.Ref) bool {
		_, outcome, _ := ec.Get(key, routed(http.StatusOK, "reloaded", 0))
		return outcome == cache.Hit
	}
	fill()
	ec.PurgeKeys(server.OfSegment("V", 0))
	for i, want := range []bool{false, false, true, true} {
		if got := resident(keys[i]); got != want {
			t.Errorf("after segment purge, %+v resident = %v, want %v", keys[i], got, want)
		}
	}
	fill()
	ec.PurgeKeys(server.OfVideo("V"))
	for i, want := range []bool{false, false, false, true} {
		if got := resident(keys[i]); got != want {
			t.Errorf("after video purge, %+v resident = %v, want %v", keys[i], got, want)
		}
	}
}

// TestEdgePurgeMovedTargetsOwnership pins the targeted topology purge:
// only entries whose key ownership moved are dropped, and every load in
// flight across the change is doomed — its recorded owner may be stale.
func TestEdgePurgeMovedTargetsOwnership(t *testing.T) {
	ec := newEdgeCache(1<<20, telemetry.NewRegistry())
	stay := server.Ref{Video: "V", Seg: 0, Kind: server.Orig}
	move := server.Ref{Video: "V", Seg: 1, Kind: server.Orig}
	flying := server.Ref{Video: "V", Seg: 2, Kind: server.Orig}
	ec.Get(stay, routed(200, "a", 0))
	ec.Get(move, routed(200, "b", 1))
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		ec.Get(flying, func() (*edgeResp, error) {
			close(started)
			<-release
			return routed(200, "c", 0)()
		})
	}()
	<-started

	// Shard 1 died: its keys now belong to shard 0, shard 0's keys don't move.
	purgeMoved(ec, func(string, int) int { return 0 })
	close(release)
	<-done

	if _, outcome, _ := ec.Get(stay, func() (*edgeResp, error) { t.Error("stable entry reloaded"); return routed(200, "a", 0)() }); outcome != cache.Hit {
		t.Error("entry with unmoved ownership was purged")
	}
	for _, key := range []server.Ref{move, flying} {
		if _, outcome, _ := ec.Get(key, routed(200, "fresh", 0)); outcome != cache.Miss {
			t.Errorf("%+v survived the topology purge (%v)", key, outcome)
		}
	}
	if st := ec.Stats(); st.Purged != 1 || st.Doomed != 1 {
		t.Errorf("Purged = %d, Doomed = %d, want 1 and 1", st.Purged, st.Doomed)
	}
}

// TestEdgeUncacheableResponsesPassThrough pins the edge ownership rule:
// 404s, sheds, and responses no live shard served are handed to their
// requesters and never cached — a recovered shard is visible immediately.
func TestEdgeUncacheableResponsesPassThrough(t *testing.T) {
	ec := newEdgeCache(1<<20, telemetry.NewRegistry())
	for seg, tc := range []struct {
		name   string
		status int
		owner  int
	}{
		{"404", http.StatusNotFound, 0},
		{"shed", http.StatusServiceUnavailable, 0},
		{"ownerless 200", http.StatusOK, -1},
	} {
		key := server.Ref{Video: "V", Seg: seg, Kind: server.Orig}
		for i := 0; i < 2; i++ {
			resp, outcome, _ := ec.Get(key, routed(tc.status, "nope", tc.owner))
			if outcome != cache.Miss || resp.status != tc.status || string(resp.body) != "nope" {
				t.Errorf("%s request %d: outcome %v, response %+v; want the routed response, uncached", tc.name, i, outcome, resp)
			}
		}
	}
	if st := ec.Stats(); st.Entries != 0 {
		t.Errorf("uncacheable responses became resident: %+v", st)
	}
}

// TestEdgeHitPathDoesNotAllocate guards serve_zipf's edge hit path for
// this package's instantiation of the core.
func TestEdgeHitPathDoesNotAllocate(t *testing.T) {
	ec := newEdgeCache(1<<20, telemetry.NewRegistry())
	key := server.Ref{Video: "video", Seg: 3, A: 2, B: 1, Kind: server.Tile}
	load := routed(http.StatusOK, "payload", 0)
	ec.Get(key, load)
	if n := testing.AllocsPerRun(200, func() { ec.Get(key, load) }); n != 0 {
		t.Errorf("resident Ref Get allocates %v times per call, want 0", n)
	}
}

// reusedWriter is a ResponseWriter reset between requests, as a server
// reuses its per-connection state: what a request allocates beyond it is
// the serving tier's own cost.
type reusedWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *reusedWriter) Header() http.Header { return w.header }

func (w *reusedWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *reusedWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// serve runs one reused request through h into w.
func (w *reusedWriter) serve(h http.Handler, r *http.Request) {
	clear(w.header)
	w.status = 0
	w.body.Reset()
	h.ServeHTTP(w, r)
}

// TestRoutedEdgeHitDoesNotAllocate guards the whole routed edge hit that
// serve_zipf's head takes: Cluster.Handler's shortcut, the edge cache and
// the replay, whose header values are the ones the edge entry holds.
func TestRoutedEdgeHitDoesNotAllocate(t *testing.T) {
	c := newTestCluster(t, 2, 1<<20)
	h := c.Handler()
	r := httptest.NewRequest(http.MethodGet, "/v/CLUSTER/fov/1/0", nil)
	w := &reusedWriter{header: make(http.Header)}
	w.serve(h, r)
	w.serve(h, r)
	if w.status != http.StatusOK || w.header.Get("X-EVR-Edge") != "hit" {
		t.Fatalf("repeat request: status %d, X-EVR-Edge %q; want an edge hit", w.status, w.header.Get("X-EVR-Edge"))
	}
	if n := testing.AllocsPerRun(200, func() { w.serve(h, r) }); n != 0 {
		t.Errorf("routed edge hit allocates %v times per request, want 0", n)
	}
}

// BenchmarkRoutedRequest times one payload GET through Cluster.Handler with
// a reused request and writer: an edge hit (router only), and a shard
// forward with the edge tier off (router, then the owning shard's handler
// answering from its response cache).
func BenchmarkRoutedRequest(b *testing.B) {
	for _, bc := range []struct {
		name      string
		edgeBytes int64
	}{{"edge-hit", 1 << 20}, {"shard-forward", -1}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.EdgeCacheBytes = bc.edgeBytes
			c, err := New(nil, opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Ingest(clusterSpec(), clusterIngest()); err != nil {
				b.Fatal(err)
			}
			h := c.Handler()
			r := httptest.NewRequest(http.MethodGet, "/v/CLUSTER/fov/1/0", nil)
			w := &reusedWriter{header: make(http.Header)}
			w.serve(h, r)
			if w.status != http.StatusOK {
				b.Fatalf("status %d: %s", w.status, w.body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.serve(h, r)
			}
		})
	}
}

// TestPanickingShardHandlerDoesNotStrandKey is the routed face of the
// stranded-flight fix: a shard handler that panics mid-request (net/http
// recovers it per connection and keeps serving) must cost only that one
// request, not every later request for the key.
func TestPanickingShardHandlerDoesNotStrandKey(t *testing.T) {
	c := newTestCluster(t, 1, 1<<20)
	healthy := c.shards[0].handler
	c.shards[0].handler = http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("shard bug") })
	router := c.Handler()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("handler panic was swallowed by the router")
			}
		}()
		get(router, "/v/CLUSTER/orig/0")
	}()
	c.shards[0].handler = healthy
	done := make(chan int, 1)
	go func() { done <- get(router, "/v/CLUSTER/orig/0").Code }()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Errorf("request after the panic: status %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request after a panicked load is still blocked on its flight")
	}
}
