package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"evr/internal/cluster"
	"evr/internal/codec"
	"evr/internal/frame"
	"evr/internal/loadgen"
	"evr/internal/projection"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
)

const (
	// zipfS is the popularity skew of serve_zipf's URL draw.
	zipfS = 1.1
	// rankSeed fixes which URL holds which popularity rank. It is part of
	// the workload, not of the seed: the head of a Zipf(1.1) draw takes a
	// fifth of the requests, so letting the seed choose whether that URL is
	// a 1 kB tile or a 20 kB original would move every metric by more than
	// its bound. The seed chooses the request order.
	rankSeed = 20190622
)

// bodyRef is what the oracle returned for one URL at set-up.
type bodyRef struct {
	sum    uint64
	bytes  int
	frames int
}

// serveEnv is the set-up serve_zipf workload: a 2-shard cluster with an
// edge cache listening on loopback, and the oracle's answer for every URL.
type serveEnv struct {
	sz       sizes
	cl       *cluster.Cluster
	store    *store.Store
	mans     []*server.Manifest
	specs    []scene.VideoSpec
	paths    []string // by popularity rank, most popular first
	want     map[string]bodyRef
	universe int64 // bytes of every URL's body together
	hot      *server.Manifest
	handler  http.Handler
	url      string
	shutdown func()
}

// catalogURL is one payload URL of an ingested manifest and the number of
// coded frames its body carries.
type catalogURL struct {
	path   string
	frames int
}

// catalogURLs lists every payload URL of an ingested manifest.
func catalogURLs(man *server.Manifest) []catalogURL {
	var out []catalogURL
	for _, seg := range man.Segments {
		add := func(format string, args ...any) {
			out = append(out, catalogURL{fmt.Sprintf("/v/%s/"+format, append([]any{man.Video}, args...)...), seg.Frames})
		}
		add("orig/%d", seg.Index)
		for _, cl := range seg.Clusters {
			add("fov/%d/%d", seg.Index, cl.ID)
		}
		if seg.Tiles == nil {
			continue
		}
		add("tilelow/%d", seg.Index)
		for t, rungs := range seg.Tiles.TileBytes {
			for r := range rungs {
				add("tile/%d/%d/%d", seg.Index, t, r)
			}
		}
	}
	return out
}

// handlerGet calls a handler directly (no TCP) and returns status and body.
func handlerGet(h http.Handler, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

// bodySeed keys bodySum for this process; the oracle's sums and the checks
// against them are made in the same run.
var bodySeed = maphash.MakeSeed()

// bodySum fingerprints a response body. It runs once per request inside
// the closed loop, so it is the runtime's hardware-assisted hash rather
// than a byte-at-a-time one: the generator must stay cheap next to the
// microseconds a request takes.
func bodySum(b []byte) uint64 { return maphash.Bytes(bodySeed, b) }

// setupServe ingests the catalog once through a plain single service — the
// oracle (the repo's -verify-single idea) — records its answer for every
// URL, then publishes the same manifests on a 2-shard cluster over the
// same store. Edge budget = ¼ and per-shard response cache = ½ of the URL
// universe's bytes, so hits, misses and evictions all occur.
func setupServe(sz sizes, wrap func(http.Handler) http.Handler) (*serveEnv, error) {
	e := &serveEnv{sz: sz, store: store.New(), want: make(map[string]bodyRef)}
	oracle := server.NewService(e.store)
	oh := oracle.Handler()
	for _, name := range sz.ServeVideos {
		v, ok := scene.ByName(name)
		if !ok {
			return nil, fmt.Errorf("video %s not in the catalog", name)
		}
		cfg := ingestConfig(sz.ServeW, sz.ServeSegs)
		cfg.Tiled = true
		man, err := oracle.IngestVideo(v, cfg)
		if err != nil {
			return nil, err
		}
		e.mans, e.specs = append(e.mans, man), append(e.specs, v)
		for _, u := range catalogURLs(man) {
			code, body := handlerGet(oh, u.path)
			if code != http.StatusOK {
				return nil, fmt.Errorf("oracle: GET %s: status %d", u.path, code)
			}
			e.want[u.path] = bodyRef{sum: bodySum(body), bytes: len(body), frames: u.frames}
			e.universe += int64(len(body))
			e.paths = append(e.paths, u.path)
		}
	}
	rand.New(rand.NewSource(rankSeed)).Shuffle(len(e.paths), func(i, j int) { e.paths[i], e.paths[j] = e.paths[j], e.paths[i] })
	for _, man := range e.mans {
		if strings.HasPrefix(e.paths[0], "/v/"+man.Video+"/") {
			e.hot = man
		}
	}
	opts := cluster.DefaultOptions()
	opts.Shards = 2
	opts.EdgeCacheBytes = e.universe / 4
	opts.Shard.RespCacheBytes = e.universe / 2
	cl, err := cluster.New(e.store, opts)
	if err != nil {
		return nil, err
	}
	for _, man := range e.mans {
		cl.Publish(man)
	}
	e.cl = cl
	e.handler = cl.Handler()
	h := e.handler
	if wrap != nil {
		h = wrap(h)
	}
	e.url, e.shutdown, err = loadgen.ServeHandler(h)
	return e, err
}

// drawer is the seed's part of serve_zipf: one connection's request order.
type drawer struct{ z *rand.Zipf }

func newDrawer(seed int64, conn, n int) drawer {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
	return drawer{rand.NewZipf(rng, zipfS, 1, uint64(n-1))}
}

func (d drawer) next() int { return int(d.z.Uint64()) }

// requestOrderHash fingerprints the first n draws of every connection.
func requestOrderHash(seed int64, conns, universe, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < conns; c++ {
		d := newDrawer(seed, c, universe)
		for i := 0; i < n; i++ {
			fmt.Fprint(h, d.next(), ",")
		}
	}
	return h.Sum64()
}

// connResult is what one caller saw in a window.
type connResult struct {
	ms        []float64 // request time, call → whole body in hand: the last maxLatencies
	rates     []float64 // frames per second, one per batch
	reqRates  []float64
	requests  int
	failed    int
	bytes     int64
	frames    int64
	lagSec    float64 // generator time between a reply and the next send
	busySec   float64
	purgeUs   []float64
	firstFail string
}

// caller issues one GET and returns the status and the body; the body is
// only valid until the caller's next call.
type caller func(path string) (status int, body []byte, err error)

// memWriter is the ResponseWriter of a direct handler call.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *memWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// directCaller calls the cluster's top-level handler in-process, with one
// reused request per URL. The measured window drives the tier this way:
// over loopback the Go HTTP stack and the kernel are four fifths of a
// request's time (share.wire_pct in the traced run) and follow the
// hypervisor's mood, not the program; called directly, cluster, server and
// store are all of it.
func (e *serveEnv) directCaller(opt options) caller {
	reqs := make(map[string]*http.Request, len(e.paths))
	for _, p := range e.paths {
		reqs[p] = httptest.NewRequest(http.MethodGet, p, nil)
	}
	w := &memWriter{header: make(http.Header)}
	return func(path string) (int, []byte, error) {
		clear(w.header)
		w.status = 0
		w.body.Reset()
		e.handler.ServeHTTP(w, reqs[path])
		body := w.body.Bytes()
		if opt.tamper != nil {
			body = opt.tamper(path, body)
		}
		return w.status, body, nil
	}
}

// tcpCaller sends real GETs over one keep-alive loopback connection.
// wrapRT, when non-nil, wraps the transport (the traced run's wire spans).
func (e *serveEnv) tcpCaller(wrapRT func(http.RoundTripper) http.RoundTripper) caller {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	if wrapRT != nil {
		rt = wrapRT(rt)
	}
	hc := &http.Client{Transport: rt}
	var buf bytes.Buffer
	return func(path string) (int, []byte, error) {
		resp, err := hc.Get(e.url + path)
		if err != nil {
			return 0, nil, err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.Bytes(), err
	}
}

// measuredCallers is how many callers drive the measured window of
// serve_zipf. One: two callers serve barely more than one does (they spend
// their time handing the edge cache's mutex from core to core), and what
// they reach then follows where the hypervisor put the two vCPUs — it moved
// by a quarter between runs of one binary — while one caller repeats to a
// few percent. The traced run records the two-caller rate beside it
// (cluster.two_caller_speedup), ungated.
const measuredCallers = 1

// maxLatencies bounds the request times a caller keeps (the most recent
// ones, in a ring filled in place): a slice growing by millions of samples
// inside the window would move the collector's pacing, and with it the
// rates, as the run goes on.
const maxLatencies = 1 << 17

// runConn is one closed-loop caller: its next request goes out only when
// the previous reply has been read and checked. It sends whole batches
// until seconds have passed (limit > 0 sends exactly limit requests
// instead). Caller 0 also republishes the hot video every PublishEvery
// requests: the caches' write path beside their reads.
func (e *serveEnv) runConn(opt options, conn int, get caller, seconds float64, limit int) connResult {
	var (
		res  = connResult{ms: make([]float64, 0, maxLatencies)}
		d    = newDrawer(opt.seed, conn, len(e.paths))
		prev time.Time
	)
	start := time.Now()
	for {
		batchStart := time.Now()
		var batchFrames int64
		n := e.sz.Batch
		if limit > 0 {
			n = limit
		}
		for i := 0; i < n; i++ {
			p := e.paths[d.next()]
			want := e.want[p]
			t0 := time.Now()
			if !prev.IsZero() {
				res.lagSec += t0.Sub(prev).Seconds()
			}
			status, body, err := get(p)
			prev = time.Now()
			dt := prev.Sub(t0).Seconds()
			if len(res.ms) < maxLatencies {
				res.ms = append(res.ms, dt*1e3)
			} else {
				res.ms[res.requests%maxLatencies] = dt * 1e3
			}
			res.busySec += dt
			res.requests++
			why := ""
			switch got := bodySum(body); {
			case err != nil:
				why = err.Error()
			case status != http.StatusOK:
				why = fmt.Sprintf("status %d", status)
			case got != want.sum || len(body) != want.bytes:
				why = fmt.Sprintf("body %016x (%d bytes) differs from the oracle's %016x (%d bytes)", got, len(body), want.sum, want.bytes)
			}
			if why != "" {
				res.failed++
				if res.firstFail == "" {
					res.firstFail = fmt.Sprintf("GET %s: %s", p, why)
				}
			} else {
				res.bytes += int64(want.bytes)
				res.frames += int64(want.frames)
				batchFrames += int64(want.frames)
			}
			if conn == 0 && res.requests%e.sz.PublishEvery == 0 {
				t := time.Now()
				e.cl.Publish(e.hot)
				res.purgeUs = append(res.purgeUs, since(t)*1e6)
			}
		}
		sec := since(batchStart)
		res.rates = append(res.rates, ratio(float64(batchFrames), sec))
		res.reqRates = append(res.reqRates, ratio(float64(n), sec))
		if limit > 0 || since(start) >= seconds {
			return res
		}
	}
}

// serveWindow is every connection's result plus the cache counters' deltas.
type serveWindow struct {
	conns         []connResult
	before, after cluster.Stats
}

// runServe runs the closed loop: callers concurrent callers, each made by mk.
func (e *serveEnv) runServe(opt options, callers int, seconds float64, limit int, mk func() caller) serveWindow {
	w := serveWindow{conns: make([]connResult, callers), before: e.cl.Stats()}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.conns[c] = e.runConn(opt, c, mk(), seconds, limit)
		}(c)
	}
	wg.Wait()
	w.after = e.cl.Stats()
	return w
}

// serveSummary is the window folded into the numbers the reports use.
type serveSummary struct {
	requests, failed           int
	bytes, frames              int64
	framesPerS, reqPerS        float64
	ms                         []float64
	lagMs                      float64
	purgeUs                    []float64
	edgeHitRatio, respHitRatio float64
	reroutes                   int64
	firstFail                  string
}

func (w serveWindow) summary() serveSummary {
	var s serveSummary
	lag := 0.0
	for _, c := range w.conns {
		s.requests += c.requests
		s.failed += c.failed
		s.bytes += c.bytes
		s.frames += c.frames
		s.framesPerS += median(c.rates)
		s.reqPerS += median(c.reqRates)
		s.ms = append(s.ms, c.ms...)
		s.purgeUs = append(s.purgeUs, c.purgeUs...)
		lag += c.lagSec
		if s.firstFail == "" {
			s.firstFail = c.firstFail
		}
	}
	s.lagMs = ratio(lag*1e3, float64(s.requests))
	if w.before.Edge != nil && w.after.Edge != nil {
		b, a := w.before.Edge, w.after.Edge
		s.edgeHitRatio = ratio(float64(a.Hits-b.Hits), float64(a.Hits+a.Misses+a.Coalesced-b.Hits-b.Misses-b.Coalesced))
	}
	var hits, all int64
	for i, sh := range w.after.Shards {
		if sh.RespCache == nil || w.before.Shards[i].RespCache == nil {
			continue
		}
		a, b := sh.RespCache, w.before.Shards[i].RespCache
		hits += a.Hits - b.Hits
		all += a.Hits + a.Misses + a.Coalesced - b.Hits - b.Misses - b.Coalesced
	}
	s.respHitRatio = ratio(float64(hits), float64(all))
	s.reroutes = w.after.Router.Rerouted - w.before.Router.Rerouted
	return s
}

// servedPSNR is view_psnr_db on serve_zipf: the first original segment of
// every catalog video, fetched through the cluster and decoded, against
// the uncompressed scene. Nothing is rendered on this workload, so this is
// the quality of what the tier hands out.
func (e *serveEnv) servedPSNR() (float64, error) {
	var db []float64
	for i, man := range e.mans {
		resp, err := http.Get(fmt.Sprintf("%s/v/%s/orig/0", e.url, man.Video))
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		frames, err := decodeBitstream(body)
		if err != nil {
			return 0, err
		}
		v := e.specs[i]
		for f := 0; f < len(frames); f += psnrEvery {
			src := v.RenderFrame(float64(f)/float64(v.FPS), projection.ERP, man.FullW, man.FullH)
			db = append(db, math.Min(frame.PSNR(src, frames[f]), 99))
		}
	}
	return mean(db), nil
}

// decodeBitstream is the client's decode step: unmarshal + codec decode.
func decodeBitstream(payload []byte) ([]*frame.Frame, error) {
	bits, err := server.UnmarshalBitstream(payload)
	if err != nil {
		return nil, err
	}
	return codec.DecodeSequence(bits)
}

// measureServe is the untraced run of serve_zipf.
func measureServe(w *workload, opt options) (result, map[string]any, error) {
	env, setupS, err := setUpRepeatedly(opt.sz.SetupRepeats, func() (*serveEnv, error) {
		e, err := setupServe(opt.sz, nil)
		if err != nil {
			return nil, err
		}
		warm := opt
		warm.tamper = nil
		e.runServe(warm, measuredCallers, 0, opt.sz.Warm, func() caller { return e.directCaller(warm) })
		return e, nil
	}, func(e *serveEnv) { e.shutdown() })
	if err != nil {
		return result{}, nil, err
	}
	defer env.shutdown()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	win := env.runServe(opt, measuredCallers, opt.seconds, 0, func() caller { return env.directCaller(opt) })
	runtime.ReadMemStats(&after)
	s := win.summary()
	psnr, err := env.servedPSNR()
	if err != nil {
		return result{}, nil, err
	}
	res := result{
		Attempted: s.requests, Failed: s.failed,
		Correct: s.failed == 0 && psnr >= opt.sz.PSNRFloor[w.name],
		Metrics: map[string]metric{
			"setup_s":            {setupS, "s"},
			"frames_per_s":       {s.framesPerS, "1/s"},
			"wire_kb_per_frame":  {ratio(float64(s.bytes)/1e3, float64(s.frames)), "kB"},
			"alloc_kb_per_frame": {ratio(float64(after.TotalAlloc-before.TotalAlloc)/1e3, float64(s.frames)), "kB"},
			"view_psnr_db":       {psnr, "dB"},
		},
	}
	info := s.info(opt, env)
	var rates [][]float64
	for _, c := range win.conns {
		rates = append(rates, c.rates)
	}
	info["rates"] = rates
	info["alloc_kb_per_req"] = ratio(float64(after.TotalAlloc-before.TotalAlloc)/1e3, float64(s.requests))
	s.log(w.name, opt, info)
	return res, info, nil
}

// info is the informational (printed, not gated) part of a serve window:
// request rate and the latency percentiles with their sample count, by the
// sample rule.
func (s serveSummary) info(opt options, e *serveEnv) map[string]any {
	sort.Float64s(s.ms) // millions of samples: sort once for every percentile
	info := map[string]any{
		"order_hash":         fmt.Sprintf("%016x", requestOrderHash(opt.seed, measuredCallers, len(e.paths), 1000)),
		"requests":           s.requests,
		"urls":               len(e.paths),
		"universe_bytes":     e.universe,
		"req_per_s":          s.reqPerS,
		"req_ms_samples":     len(s.ms),
		"req_ms_p50":         sortedQuantile(s.ms, 0.50),
		"req_ms_max":         sortedQuantile(s.ms, 1),
		"gen_lag_ms":         s.lagMs,
		"edge_hit_ratio":     s.edgeHitRatio,
		"respcache_hit_rate": s.respHitRatio,
		"purges":             len(s.purgeUs),
		"fail_ratio":         ratio(float64(s.failed), float64(s.requests)),
	}
	top := highestPercentile(len(s.ms))
	for _, p := range reportablePercentiles[1:] {
		if p <= top {
			info[fmt.Sprintf("req_ms_p%g", p*100)] = sortedQuantile(s.ms, p)
		}
	}
	info["req_ms_highest_percentile"] = top * 100
	if s.firstFail != "" {
		info["first_failure"] = s.firstFail
	}
	return info
}

func (s serveSummary) log(name string, opt options, info map[string]any) {
	opt.logf("%s: %d requests over %d URLs (%d bytes); req_per_s %.0f; gen.lag_ms %.4f", name, s.requests, info["urls"], info["universe_bytes"], s.reqPerS, s.lagMs)
	line := fmt.Sprintf("%s: req_ms (n=%d, highest reportable p%g):", name, len(s.ms), info["req_ms_highest_percentile"])
	for _, p := range reportablePercentiles {
		if v, ok := info[fmt.Sprintf("req_ms_p%g", p*100)]; ok {
			line += fmt.Sprintf(" p%g %.4f", p*100, v)
		}
	}
	opt.logf("%s max %.3f (p99 and above are informational)", line, info["req_ms_max"])
	opt.logf("%s: edge hit ratio %.4f, respcache hit ratio %.4f, %d republish purges, %d reroutes; fail_ratio %g",
		name, s.edgeHitRatio, s.respHitRatio, len(s.purgeUs), s.reroutes, info["fail_ratio"])
	if s.firstFail != "" {
		opt.logf("%s: FAILED %s", name, s.firstFail)
	}
}
