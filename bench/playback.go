package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"evr/internal/client"
	"evr/internal/frame"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/loadgen"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
	"evr/internal/telemetry"
)

// playbackVideo is the video every playback workload streams: RS has the
// highest FOV-miss rate of the catalog (§8.2), so hits and misses both occur.
const playbackVideo = "RS"

// psnrEvery samples every 10th displayed frame for view_psnr_db.
const psnrEvery = 10

// playEnv is one set-up playback workload: an ingested service listening
// on loopback and the head traces of the viewer population.
type playEnv struct {
	w        *workload
	sz       sizes
	video    scene.VideoSpec
	svc      *server.Service
	man      *server.Manifest
	url      string
	shutdown func()
	traces   map[int]headtrace.Trace
	frames   int // frames one session must display
}

// setupPlayback ingests the video, starts the listener and returns the
// environment. wrap, when non-nil, wraps the top-level handler (the traced
// run's serve spans).
func setupPlayback(w *workload, sz sizes, wrap func(http.Handler) http.Handler) (*playEnv, error) {
	v, ok := scene.ByName(playbackVideo)
	if !ok {
		return nil, fmt.Errorf("video %s not in the catalog", playbackVideo)
	}
	cfg := ingestConfig(sz.PanoW, sz.Segments)
	w.ingest(&cfg)
	svc := server.NewService(store.New())
	man, err := svc.IngestVideo(v, cfg)
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	url, shutdown, err := loadgen.ServeHandler(h)
	if err != nil {
		return nil, err
	}
	e := &playEnv{w: w, sz: sz, video: v, svc: svc, man: man, url: url, shutdown: shutdown,
		traces: make(map[int]headtrace.Trace)}
	for _, u := range sz.Users {
		e.traces[u] = headtrace.Generate(v, u)
	}
	for _, seg := range man.Segments {
		e.frames += seg.Frames
	}
	return e, nil
}

// session is one playback of one user.
type session struct {
	user   int
	stats  client.PlaybackStats
	fetch  client.FetchCounters
	sum    uint64  // FNV-1a over every displayed frame
	sec    float64 // wall time of Play
	sample []*frame.Frame
	err    error
}

// play runs one session on a fresh player over the connection's HTTP
// client. Hashing and sampling happen after Play returns, outside sec.
func (e *playEnv) play(hc *http.Client, user int, tr *telemetry.Tracer, keepSample bool) session {
	p := client.NewPlayer(e.url)
	p.ViewportScale = e.sz.VPScale
	p.Workers = 1
	p.HTTP = hc
	p.Trace = tr
	e.w.player(p)
	s := session{user: user}
	t0 := time.Now()
	stats, displayed, err := p.Play(e.video.Name, hmd.NewIMU(e.traces[user]), e.sz.Segments)
	s.sec = since(t0)
	s.stats, s.err = stats, err
	s.fetch = p.Fetcher().Counters()
	p.Fetcher().Close()
	h := fnv.New64a()
	for i, f := range displayed {
		h.Write(f.Pix)
		if keepSample && i%psnrEvery == 0 {
			s.sample = append(s.sample, f)
		}
	}
	s.sum = h.Sum64()
	return s
}

// cycle is one pass of a connection over the whole population.
type cycle []session

func (c cycle) frames() (n int) {
	for _, s := range c {
		n += s.stats.Frames
	}
	return n
}

func (c cycle) sec() (t float64) {
	for _, s := range c {
		t += s.sec
	}
	return t
}

// sessionOrder is the seed's part of a playback workload: the order in
// which each connection plays the population. Connections start at
// different points of the same seeded permutation.
func sessionOrder(seed int64, users []int, conns int) [][]int {
	perm := rand.New(rand.NewSource(seed)).Perm(len(users))
	out := make([][]int, conns)
	for c := range out {
		shift := c * len(users) / conns
		for i := range perm {
			out[c] = append(out[c], users[perm[(i+shift)%len(perm)]])
		}
	}
	return out
}

// orderHash fingerprints a session or request order for the tests.
func orderHash(order [][]int) uint64 {
	h := fnv.New64a()
	for _, o := range order {
		fmt.Fprint(h, o, ";")
	}
	return h.Sum64()
}

// viewer is what one closed-loop connection plays with: its HTTP client
// and, on traced runs, a hook that sees each finished session together
// with the Player.Trace tracer that session ran under.
type viewer struct {
	hc     *http.Client
	traced func(s session, tr *telemetry.Tracer)
}

// runViewers is the closed loop: conns viewers, each playing the
// population in its seeded order, whole cycles until seconds have passed
// (at least one). A viewer's next session starts only when its previous
// one has been displayed in full.
func (e *playEnv) runViewers(opt options, seconds float64, mk func(conn int) viewer) [][]cycle {
	order := sessionOrder(opt.seed, e.sz.Users, opt.conns)
	out := make([][]cycle, opt.conns)
	var wg sync.WaitGroup
	for c := 0; c < opt.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			v := mk(c)
			start := time.Now()
			for first := true; first || since(start) < seconds; first = false {
				var cy cycle
				for _, u := range order[c] {
					var tr *telemetry.Tracer
					if v.traced != nil {
						tr = telemetry.NewTracer(e.frames)
					}
					s := e.play(v.hc, u, tr, c == 0 && first)
					if v.traced != nil {
						v.traced(s, tr)
					}
					cy = append(cy, s)
				}
				out[c] = append(out[c], cy)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// newTransport returns a connection's own keep-alive transport, so the
// viewers share no connection pool.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 32, MaxIdleConnsPerHost: 32, IdleConnTimeout: time.Minute}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// tamperTransport lets opt.tamper rewrite response bodies (tests only).
func tamperTransport(next http.RoundTripper, tamper func(url string, body []byte) []byte) http.RoundTripper {
	if tamper == nil {
		return next
	}
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		resp, err := next.RoundTrip(r)
		if err != nil {
			return resp, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		body = tamper(r.URL.Path, body)
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		return resp, nil
	})
}

// plainViewer is the untraced viewer.
func plainViewer(opt options) func(int) viewer {
	return func(int) viewer {
		return viewer{hc: &http.Client{Transport: tamperTransport(newTransport(), opt.tamper)}}
	}
}

// warmUp plays one untimed session per connection so listeners,
// connection pools, frame pools and the heap are past their first use. It
// is part of setup_s, so which user each connection plays is fixed: a
// seed-chosen one would make set-up cost an explorer's session on one seed
// and a tracker's on the next.
func (e *playEnv) warmUp(opt options) error {
	errs := make([]error, opt.conns)
	var wg sync.WaitGroup
	for c := 0; c < opt.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: newTransport()}
			errs[c] = e.play(hc, e.sz.Users[c%len(e.sz.Users)], nil, false).err
			hc.CloseIdleConnections()
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up session: %w", err)
		}
	}
	return nil
}

// setUpRepeatedly sets a workload up n times, closing all but the last
// environment, and returns the last one with the median set-up time.
// setup_s covers ingest, listener start and the warm-up pass.
func setUpRepeatedly[E any](n int, setup func() (E, error), closeEnv func(E)) (E, float64, error) {
	var (
		env  E
		secs []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			closeEnv(env)
		}
		t0 := time.Now()
		var err error
		env, err = setup()
		if err != nil {
			return env, 0, err
		}
		secs = append(secs, since(t0))
	}
	return env, median(secs), nil
}

// playbackTotals folds the window's sessions into the counts every report
// needs and runs the correctness checks.
type playbackTotals struct {
	attempted, failed int
	frames            int
	stats             client.PlaybackStats // summed over all sessions
	failures          []string
}

// check runs the per-session correctness checks over every cycle: no
// error, the full frame count, Hits+Misses == Frames, and every play of a
// user showing the same pixels as that user's first play.
func (e *playEnv) check(cycles [][]cycle) playbackTotals {
	var t playbackTotals
	first := map[int]uint64{}
	for _, conn := range cycles {
		for _, cy := range conn {
			for _, s := range cy {
				t.attempted++
				t.frames += s.stats.Frames
				addStats(&t.stats, s.stats)
				var why string
				ref, seen := first[s.user]
				switch {
				case s.err != nil:
					why = s.err.Error()
				case s.stats.Frames != e.frames:
					why = fmt.Sprintf("displayed %d frames, want %d", s.stats.Frames, e.frames)
				case s.stats.Hits+s.stats.Misses != s.stats.Frames:
					why = fmt.Sprintf("hits %d + misses %d != frames %d", s.stats.Hits, s.stats.Misses, s.stats.Frames)
				case seen && ref != s.sum:
					why = fmt.Sprintf("frame checksum %016x differs from the first play's %016x", s.sum, ref)
				}
				if !seen && s.err == nil {
					first[s.user] = s.sum
				}
				if why != "" {
					t.failed++
					t.failures = append(t.failures, fmt.Sprintf("user %d: %s", s.user, why))
				}
			}
		}
	}
	return t
}

// addStats sums the counters the reports use.
func addStats(dst *client.PlaybackStats, s client.PlaybackStats) {
	dst.Frames += s.Frames
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.BytesFetched += s.BytesFetched
	dst.PTEFrames += s.PTEFrames
	dst.CacheHits += s.CacheHits
	dst.PrefetchHits += s.PrefetchHits
	dst.ModeTiledSegments += s.ModeTiledSegments
	dst.TiledTiles += s.TiledTiles
	dst.MispredictedTiles += s.MispredictedTiles
}

// viewport is the display viewport every session renders.
func (e *playEnv) viewport() projection.Viewport {
	return hmd.OSVRHDK2().ScaledViewport(e.sz.VPScale)
}

// viewPSNR is view_psnr_db: the mean PSNR of the sampled displayed frames
// against the float reference render of the uncompressed scene at the true
// pose. It runs outside every timed window.
func (e *playEnv) viewPSNR(first cycle) float64 {
	cfg := pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: e.viewport()}
	var db []float64
	for _, s := range first {
		imu := hmd.NewIMU(e.traces[s.user])
		for i, got := range s.sample {
			fi := i * psnrEvery
			src := e.video.RenderFrame(float64(fi)/float64(e.video.FPS), projection.ERP, e.sz.PanoW, e.sz.PanoW/2)
			ref := pt.Render(cfg, src, imu.At(fi))
			if got.W != ref.W || got.H != ref.H {
				db = append(db, 0)
				continue
			}
			db = append(db, math.Min(frame.PSNR(ref, got), 99))
		}
	}
	return mean(db)
}

// cycleRate is Σ over connections of the median per-cycle rate.
func cycleRate(cycles [][]cycle) float64 {
	total := 0.0
	for _, conn := range cycles {
		var rates []float64
		for _, cy := range conn {
			rates = append(rates, ratio(float64(cy.frames()), cy.sec()))
		}
		total += median(rates)
	}
	return total
}

// measurePlayback is the untraced run of a playback workload.
func measurePlayback(w *workload, opt options) (result, map[string]any, error) {
	env, setupS, err := setUpRepeatedly(opt.sz.SetupRepeats, func() (*playEnv, error) {
		e, err := setupPlayback(w, opt.sz, nil)
		if err != nil {
			return nil, err
		}
		return e, e.warmUp(opt)
	}, func(e *playEnv) { e.shutdown() })
	if err != nil {
		return result{}, nil, err
	}
	defer env.shutdown()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycles := env.runViewers(opt, opt.seconds, plainViewer(opt))
	runtime.ReadMemStats(&after)

	t := env.check(cycles)
	first := cycles[0][0]
	psnr := env.viewPSNR(first)
	var firstStats client.PlaybackStats
	for _, s := range first {
		addStats(&firstStats, s.stats)
	}
	res := result{
		Attempted: t.attempted, Failed: t.failed,
		Correct: t.failed == 0 && psnr >= opt.sz.PSNRFloor[w.name],
		Metrics: map[string]metric{
			"setup_s":            {setupS, "s"},
			"frames_per_s":       {cycleRate(cycles), "1/s"},
			"wire_kb_per_frame":  {ratio(float64(firstStats.BytesFetched)/1e3, float64(firstStats.Frames)), "kB"},
			"alloc_kb_per_frame": {ratio(float64(after.TotalAlloc-before.TotalAlloc)/1e3, float64(t.frames)), "kB"},
			"view_psnr_db":       {psnr, "dB"},
		},
	}
	if psnr < opt.sz.PSNRFloor[w.name] {
		t.failures = append(t.failures, fmt.Sprintf("view_psnr_db %.3f below the floor %.3f", psnr, opt.sz.PSNRFloor[w.name]))
	}
	var rates [][]float64
	for _, conn := range cycles {
		var r []float64
		for _, cy := range conn {
			r = append(r, ratio(float64(cy.frames()), cy.sec()))
		}
		rates = append(rates, r)
	}
	info := map[string]any{
		"order_hash":    fmt.Sprintf("%016x", orderHash(sessionOrder(opt.seed, opt.sz.Users, opt.conns))),
		"sessions":      t.attempted,
		"frames":        t.frames,
		"cycles":        len(cycles[0]),
		"fov_hit_ratio": ratio(float64(t.stats.Hits), float64(t.stats.Frames)),
		"fail_ratio":    ratio(float64(t.failed), float64(t.attempted)),
		"rates":         rates,
	}
	if len(t.failures) > 0 {
		info["failures"] = t.failures
	}
	opt.logf("%s: %d sessions, %d frames in %d cycles/connection; FOV hit ratio %.3f; fail_ratio %g",
		w.name, t.attempted, t.frames, len(cycles[0]), info["fov_hit_ratio"], info["fail_ratio"])
	for _, f := range t.failures {
		opt.logf("%s: FAILED %s", w.name, f)
	}
	return res, info, nil
}
