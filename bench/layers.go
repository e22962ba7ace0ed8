package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"evr/internal/client"
	"evr/internal/codec"
	"evr/internal/delivery"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/hmd"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/ptlut"
	"evr/internal/sas"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
	"evr/internal/telemetry"
	"evr/internal/tiling"
)

// perLayer is every per-layer metric with its unit, in BENCHMARK.json's
// order. A traced run reports all of them; one a workload bypasses reads 0,
// which is the point: layer separation is shown, not asserted.
var perLayer = []struct{ name, unit string }{
	{"scene.render_ms_per_frame", "ms"},
	{"sas.plan_ms", "ms"},
	{"codec.encode_mpix_per_s", "Mpix/s"},
	{"codec.decode_mpix_per_s", "Mpix/s"},
	{"codec.decode_ms_per_segment", "ms"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"pt.render_ms_per_frame", "ms"},
	{"pt.alloc_kb_per_frame", "kB"},
	{"pte.render_ms_per_frame", "ms"},
	{"pte.sim_cycles_per_frame", "count"},
	{"pte.sim_energy_uj_per_frame", "uJ"},
	{"ptlut.build_ms", "ms"},
	{"ptlut.apply_ms_per_frame", "ms"},
	{"ptlut.hit_ratio", "ratio"},
	{"delivery.assemble_ms_per_frame", "ms"},
	{"delivery.unmarshal_tile_us", "us"},
	{"client.tiles_per_segment", "count"},
	{"client.mispredicted_tile_ratio", "ratio"},
	{"client.fetch_overhead_us", "us"},
	{"client.cache_hit_ratio", "ratio"},
	{"client.prefetch_hit_ratio", "ratio"},
	{"client.fov_hit_ratio", "ratio"},
	{"client.display_ms_per_frame", "ms"},
	{"client.sim_energy_mj_per_frame", "mJ"},
	{"server.handler_us_hit", "us"},
	{"server.handler_us_miss", "us"},
	{"server.respcache_hit_ratio", "ratio"},
	{"cluster.router_overhead_us", "us"},
	{"cluster.edge_hit_ratio", "ratio"},
	{"cluster.purge_us", "us"},
	{"cluster.purges", "count"},
	{"cluster.reroutes", "count"},
	{"cluster.two_caller_speedup", "ratio"},
	{"loadgen.requests", "count"},
	{"loadgen.req_per_s", "1/s"},
	{"loadgen.req_ms_p50", "ms"},
	{"loadgen.req_ms_p95", "ms"},
	{"gen.lag_ms", "ms"},
	{"calib_ms", "ms"},
	{"wire.busy_ms", "ms"},
	{"serve.busy_ms", "ms"},
	{"codec.busy_ms", "ms"},
	{"delivery.busy_ms", "ms"},
	{"pt.busy_ms", "ms"},
	{"pte.busy_ms", "ms"},
	{"share.wire_pct", "%"},
	{"share.serve_pct", "%"},
	{"share.codec_pct", "%"},
	{"share.delivery_pct", "%"},
	{"share.pt_pct", "%"},
	{"share.pte_pct", "%"},
	{"share.client_pct", "%"},
	{"replay_cover_pct", "%"},
	{"trace_overhead_pct", "%"},
}

// layerMetrics is the per-layer metric set being filled in by a traced run.
type layerMetrics map[string]metric

func newLayerMetrics() layerMetrics {
	m := layerMetrics{}
	for _, pl := range perLayer {
		m[pl.name] = metric{0, pl.unit}
	}
	return m
}

func (m layerMetrics) set(name string, v float64) {
	old, ok := m[name]
	if !ok {
		panic("bench: unlisted per-layer metric " + name)
	}
	m[name] = metric{v, old.Unit}
}

// script is what one traced session did, as seen from outside the player:
// the URLs it fetched and, per displayed frame, the stage times the public
// Player.Trace hook recorded. The layer replay walks it.
type script struct {
	s      session
	urls   []string
	frames []telemetry.FrameTrace
}

// urlLog collects the request paths of the session a connection is playing.
type urlLog struct {
	mu   sync.Mutex
	urls []string
}

func (l *urlLog) add(path string) {
	l.mu.Lock()
	l.urls = append(l.urls, path)
	l.mu.Unlock()
}

func (l *urlLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.urls
	l.urls = nil
	return out
}

// tracedPlayback is the traced run of a playback workload: a short
// untraced window, the same window traced (wire and serve spans plus the
// player's own stage sums), a layer replay of every user's session, and
// the layer probes.
func tracedPlayback(w *workload, opt options) (result, map[string]any, error) {
	rec := newRecorder()
	env, err := setupPlayback(w, opt.sz, rec.handler)
	if err != nil {
		return result{}, nil, err
	}
	defer env.shutdown()
	if err := env.warmUp(opt); err != nil {
		return result{}, nil, err
	}
	m := newLayerMetrics()
	window := opt.seconds / 3

	runtime.GC()
	plain := env.runViewers(opt, window, plainViewer(opt))
	var (
		mu      sync.Mutex
		scripts []script
	)
	runtime.GC()
	traced := env.runViewers(opt, window, func(int) viewer {
		log := &urlLog{}
		return viewer{
			hc: &http.Client{Transport: rec.transport(tamperTransport(newTransport(), opt.tamper), log.add)},
			traced: func(s session, tr *telemetry.Tracer) {
				sc := script{s: s, urls: log.take(), frames: tr.Recent(0)}
				mu.Lock()
				scripts = append(scripts, sc)
				mu.Unlock()
			},
		}
	})
	t := env.check(append(append([][]cycle{}, plain...), traced...))
	res := result{Attempted: t.attempted, Failed: t.failed, Correct: t.failed == 0, Metrics: m}
	info := map[string]any{}
	if t.failed > 0 {
		// A failed session has no trustworthy script to replay.
		info["failures"] = t.failures
		for _, f := range t.failures {
			opt.logf("%s: FAILED %s", w.name, f)
		}
		return res, info, nil
	}

	untraced, withTrace := cycleRate(plain), cycleRate(traced)
	m.set("trace_overhead_pct", 100*ratio(untraced-withTrace, untraced))
	opt.logf("%s: frames_per_s untraced %.2f, traced %.2f: trace_overhead_pct %.2f",
		w.name, untraced, withTrace, m["trace_overhead_pct"].Value)

	// Client-side counts, over the traced sessions.
	var (
		st        client.PlaybackStats
		ft        client.FetchCounters
		downloads int
		displayMs float64
		hitFrames int
		wireMs    []float64
	)
	for _, sc := range scripts {
		addStats(&st, sc.s.stats)
		ft.PrefetchHits += sc.s.fetch.PrefetchHits
		ft.PrefetchIssued += sc.s.fetch.PrefetchIssued
		for _, u := range sc.urls {
			if k, _ := parseURL(u); k != "manifest" && k != "fovmeta" {
				downloads++
			}
		}
		for _, f := range sc.frames {
			if d := f.Stages[telemetry.StageDisplay]; d > 0 {
				displayMs += d.Seconds() * 1e3
				hitFrames++
			}
		}
	}
	grid := 1
	if env.man.Tiling != nil {
		grid = env.man.Tiling.Cols * env.man.Tiling.Rows
	}
	m.set("client.fov_hit_ratio", ratio(float64(st.Hits), float64(st.Frames)))
	m.set("client.cache_hit_ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+downloads)))
	m.set("client.prefetch_hit_ratio", ratio(float64(ft.PrefetchHits), float64(ft.PrefetchIssued)))
	m.set("client.tiles_per_segment", ratio(float64(st.TiledTiles), float64(st.ModeTiledSegments)))
	m.set("client.mispredicted_tile_ratio", ratio(float64(st.MispredictedTiles), float64(st.Frames*grid)))
	m.set("client.display_ms_per_frame", ratio(displayMs, float64(hitFrames)))
	if rc, ok := env.svc.RespCacheStats(); ok {
		m.set("server.respcache_hit_ratio", ratio(float64(rc.Hits), float64(rc.Hits+rc.Misses+rc.Coalesced)))
	}

	// The players' own requests, timed at the benchmark's RoundTripper.
	tracedSec := 0.0 // session time, summed over the connections
	for _, conn := range traced {
		for _, cy := range conn {
			tracedSec += cy.sec()
		}
	}
	for _, s := range rec.spans {
		if s.Name == "wire" {
			wireMs = append(wireMs, float64(s.End-s.Start)/1e6)
		}
	}
	m.set("loadgen.requests", float64(len(wireMs)))
	m.set("loadgen.req_per_s", ratio(float64(len(wireMs)), tracedSec/float64(opt.conns)))
	setLatency(m, wireMs)
	printLayers(opt.logf, fmt.Sprintf("%s: traced window, against %.0f ms of session time (all connections)", w.name, tracedSec*1e3),
		rec.layers(0, tracedSec*1e3))

	// Layer replay: every user's session, step by step.
	perUser := map[int][]float64{}
	for _, conn := range plain {
		for _, cy := range conn {
			for _, s := range cy {
				perUser[s.user] = append(perUser[s.user], s.sec)
			}
		}
	}
	replayFrom := rec.mark()
	rp, err := newReplayer(env, rec)
	if err != nil {
		return result{}, nil, err
	}
	wallMs := 0.0
	done := map[int]bool{}
	for _, sc := range scripts {
		if done[sc.s.user] {
			continue
		}
		done[sc.s.user] = true
		wallMs += mean(perUser[sc.s.user]) * 1e3
		if err := rp.run(sc); err != nil {
			return result{}, nil, fmt.Errorf("layer replay of user %d: %w", sc.s.user, err)
		}
	}
	rows := rec.layers(replayFrom, wallMs)
	rows = append(rows, rp.client...)
	for i := range rows {
		rows[i].SharePct = 100 * ratio(rows[i].SelfMs, wallMs)
	}
	printLayers(opt.logf, fmt.Sprintf("%s: layer replay of %d sessions, against %.0f ms of untraced session time", w.name, len(done), wallMs), rows)
	rp.report(m, rows, wallMs)
	if c := m["replay_cover_pct"].Value; c < 80 {
		opt.logf("%s: attribution is INCOMPLETE: the replay's layers cover %.1f %% of the untraced session time (< 80 %%)", w.name, c)
	} else {
		opt.logf("%s: the replay's layers cover %.1f %% of the untraced session time", w.name, c)
	}

	if err := env.probes(m); err != nil {
		return result{}, nil, err
	}
	path, err := rec.writeTrace(opt.outDir, w.name)
	if err != nil {
		return result{}, nil, err
	}
	opt.logf("%s: wrote %s", w.name, path)
	info["layers"] = rows
	info["sessions"] = t.attempted
	return res, info, nil
}

// setLatency reports the request-time percentiles the sample rule allows.
func setLatency(m layerMetrics, ms []float64) {
	top := highestPercentile(len(ms))
	if top >= 0.5 {
		m.set("loadgen.req_ms_p50", quantile(ms, 0.5))
	}
	if top >= 0.95 {
		m.set("loadgen.req_ms_p95", quantile(ms, 0.95))
	}
}

// parseURL splits a request path /v/{video}/{kind}/{n}/... into the
// endpoint kind and the numeric elements after it.
func parseURL(path string) (kind string, idx []int) {
	parts := strings.Split(path, "/")
	if len(parts) < 4 {
		return "", nil
	}
	for _, p := range parts[4:] {
		n, _ := strconv.Atoi(p)
		idx = append(idx, n)
	}
	return parts[3], idx
}

// replayer walks recorded sessions through the exported calls of each
// layer, one span per call: bare GET, codec decode, tile unmarshal and
// assembly, and the PT render the player would pick, at the trace's poses.
type replayer struct {
	e      *playEnv
	rec    *recorder
	hc     *http.Client
	engine *pte.Engine // set when the workload renders on the PTE
	ptCfg  pt.Config
	grid   tiling.Grid

	decodedPix  int64
	decodedSegs int
	rendered    int
	// client holds the stages only the player can time (its display crop
	// and FOV check are unexported): taken from Player.Trace.
	client []layerRow
}

func newReplayer(e *playEnv, rec *recorder) (*replayer, error) {
	r := &replayer{e: e, rec: rec}
	r.hc = &http.Client{Transport: r.rec.transport(newTransport(), nil)}
	r.ptCfg = pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: e.viewport()}
	probe := client.NewPlayer("")
	e.w.player(probe)
	if probe.UseHAR {
		eng, err := pte.New(pte.DefaultConfig(projection.ERP, pt.Bilinear, e.viewport()))
		if err != nil {
			return nil, err
		}
		r.engine = eng
	}
	if t := e.man.Tiling; t != nil {
		r.grid = tiling.Grid{Cols: t.Cols, Rows: t.Rows}
	}
	r.client = []layerRow{{Name: "client.display"}, {Name: "client.fovcheck"}}
	return r, nil
}

func (r *replayer) get(path string) ([]byte, error) {
	resp, err := r.hc.Get(r.e.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func (r *replayer) decode(bits *codec.Bitstream) (frames []*frame.Frame, err error) {
	r.rec.do("codec.decode", func() { frames, err = codec.DecodeSequence(bits) })
	r.decodedPix += int64(bits.W) * int64(bits.H) * int64(len(frames))
	r.decodedSegs++
	return frames, err
}

func (r *replayer) run(sc script) error {
	var (
		orig  = map[int][]*frame.Frame{}
		low   = map[int][]*frame.Frame{}
		tiles = map[int]map[int][]*frame.Frame{}
	)
	for _, u := range sc.urls {
		body, err := r.get(u)
		if err != nil {
			return err
		}
		kind, idx := parseURL(u)
		switch kind {
		case "orig", "fov", "tilelow":
			bits, err := server.UnmarshalBitstream(body)
			if err != nil {
				return err
			}
			frames, err := r.decode(bits)
			if err != nil {
				return err
			}
			if kind == "orig" {
				orig[idx[0]] = frames
			} else if kind == "tilelow" {
				low[idx[0]] = frames
			}
		case "tile":
			var p *delivery.TilePayload
			r.rec.do("delivery.unmarshal", func() { p, err = delivery.UnmarshalTile(body) })
			if err != nil {
				return err
			}
			frames, err := r.decode(p.Bits)
			if err != nil {
				return err
			}
			if tiles[idx[0]] == nil {
				tiles[idx[0]] = map[int][]*frame.Frame{}
			}
			tiles[idx[0]][p.Tile] = frames
		}
	}
	for seg, lf := range low {
		var err error
		r.rec.do("delivery.assemble", func() {
			orig[seg], err = delivery.Assemble(r.grid, r.e.man.FullW, r.e.man.FullH, lf, tiles[seg])
		})
		if err != nil {
			return err
		}
	}
	imu := hmd.NewIMU(r.e.traces[sc.s.user])
	for _, ft := range sc.frames {
		for i, st := range []telemetry.Stage{telemetry.StageDisplay, telemetry.StageFOVCheck} {
			if d := ft.Stages[st]; d > 0 {
				r.client[i].Count++
				r.client[i].BusyMs += d.Seconds() * 1e3
				r.client[i].SelfMs += d.Seconds() * 1e3
			}
		}
		if ft.Stages[telemetry.StageRender] == 0 {
			continue
		}
		f := ft.Frame - ft.Segment*r.e.man.SegmentFrames
		if f < 0 || f >= len(orig[ft.Segment]) {
			return fmt.Errorf("frame %d was rendered but its source segment %d was never fetched", ft.Frame, ft.Segment)
		}
		src, pose := orig[ft.Segment][f], imu.At(ft.Frame)
		if r.engine != nil {
			r.rec.do("pte.render", func() { r.engine.RenderParallel(src, pose, 1) })
		} else {
			var err error
			r.rec.do("pt.render", func() { _, err = pt.RenderParallelChecked(r.ptCfg, src, pose, 1) })
			if err != nil {
				return err
			}
		}
		r.rendered++
	}
	return nil
}

// report turns the replay's rows into the per-layer metrics.
func (r *replayer) report(m layerMetrics, rows []layerRow, wallMs float64) {
	wire, serve := row(rows, "wire"), row(rows, "serve")
	dec, unm, asm := row(rows, "codec.decode"), row(rows, "delivery.unmarshal"), row(rows, "delivery.assemble")
	ptR, pteR := row(rows, "pt.render"), row(rows, "pte.render")
	disp, chk := row(rows, "client.display"), row(rows, "client.fovcheck")

	m.set("wire.busy_ms", wire.BusyMs)
	m.set("serve.busy_ms", serve.BusyMs)
	m.set("codec.busy_ms", dec.BusyMs)
	m.set("delivery.busy_ms", unm.BusyMs+asm.BusyMs)
	m.set("pt.busy_ms", ptR.BusyMs)
	m.set("pte.busy_ms", pteR.BusyMs)
	m.set("share.wire_pct", wire.SharePct)
	m.set("share.serve_pct", serve.SharePct)
	m.set("share.codec_pct", dec.SharePct)
	m.set("share.delivery_pct", unm.SharePct+asm.SharePct)
	m.set("share.pt_pct", ptR.SharePct)
	m.set("share.pte_pct", pteR.SharePct)
	m.set("share.client_pct", disp.SharePct+chk.SharePct)
	cover := 0.0
	for _, row := range rows {
		cover += row.SelfMs
	}
	m.set("replay_cover_pct", 100*ratio(cover, wallMs))

	m.set("codec.decode_mpix_per_s", ratio(float64(r.decodedPix)/1e6, dec.BusyMs/1e3))
	m.set("codec.decode_ms_per_segment", ratio(dec.BusyMs, float64(r.decodedSegs)))
	m.set("delivery.unmarshal_tile_us", ratio(unm.BusyMs*1e3, float64(unm.Count)))
	m.set("delivery.assemble_ms_per_frame", ratio(asm.BusyMs, float64(asm.Count*r.e.man.SegmentFrames)))
	if r.engine != nil {
		m.set("pte.render_ms_per_frame", ratio(pteR.BusyMs, float64(pteR.Count)))
		st := r.engine.Stats()
		m.set("pte.sim_cycles_per_frame", ratio(float64(st.Cycles), float64(st.Frames)))
		m.set("pte.sim_energy_uj_per_frame", ratio(r.engine.EnergyJoules()*1e6, float64(st.Frames)))
	} else {
		m.set("pt.render_ms_per_frame", ratio(ptR.BusyMs, float64(ptR.Count)))
	}
}

// timeMs runs fn and returns how long it took.
func timeMs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return since(t0) * 1e3
}

// allocKB runs fn and returns what it allocated.
func allocKB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1e3
}

// ingestProbe replays one ingest segment of v through the exported calls
// of the write side — scene render, codec encode, store put and get — and
// returns the rendered frames for further probes.
func ingestProbe(m layerMetrics, v scene.VideoSpec, cfg server.IngestConfig) ([]*frame.Frame, error) {
	n := cfg.SAS.SegmentFrames
	full := make([]*frame.Frame, n)
	ms := timeMs(func() {
		for f := range full {
			full[f] = v.RenderFrame(float64(f)/float64(v.FPS), cfg.Projection, cfg.FullW, cfg.FullH)
		}
	})
	m.set("scene.render_ms_per_frame", ms/float64(n))
	var (
		bits *codec.Bitstream
		err  error
	)
	ms = timeMs(func() { bits, err = codec.EncodeSequence(cfg.Codec, full) })
	if err != nil {
		return nil, err
	}
	m.set("codec.encode_mpix_per_s", ratio(float64(cfg.FullW*cfg.FullH*n)/1e6, ms/1e3))
	var payload []byte
	for _, f := range bits.Frames {
		payload = append(payload, f...)
	}
	const reps = 200
	st := store.New()
	ms = timeMs(func() {
		for i := 0; i < reps && err == nil; i++ {
			err = st.Put("probe/"+strconv.Itoa(i), payload, nil)
		}
	})
	if err != nil {
		return nil, err
	}
	m.set("store.put_us", ms*1e3/reps)
	ms = timeMs(func() {
		for i := 0; i < reps; i++ {
			st.Get("probe/" + strconv.Itoa(i))
		}
	})
	m.set("store.get_us", ms*1e3/reps)
	return full, nil
}

// probes measures the layers a replay cannot reach from a session: the
// ingest side, the LUT renderer nothing selects yet, the fetcher's cost
// over a bare GET, and the modelled device energy.
func (e *playEnv) probes(m layerMetrics) error {
	cfg := ingestConfig(e.sz.PanoW, e.sz.Segments)
	e.w.ingest(&cfg)
	full, err := ingestProbe(m, e.video, cfg)
	if err != nil {
		return err
	}
	probe := client.NewPlayer(e.url)
	e.w.player(probe)
	imu := hmd.NewIMU(e.traces[e.sz.Users[0]])

	if !cfg.LiveMode {
		// The SAS side of ingest: the behavioural plan, and the float PT
		// that pre-renders one cluster's FOV video.
		var plan *sas.Plan
		m.set("sas.plan_ms", timeMs(func() { plan, err = sas.BuildPlan(e.video, cfg.SAS) }))
		if err != nil {
			return err
		}
		fovCfg := pt.Config{Projection: cfg.Projection, Filter: pt.Bilinear, Viewport: projection.Viewport{
			Width: cfg.FOVW, Height: cfg.FOVH, FOVX: geom.Radians(cfg.FOVXDeg), FOVY: geom.Radians(cfg.FOVYDeg)}}
		if cl := e.man.Segments[0].Clusters; len(cl) > 0 {
			kb := allocKB(func() {
				ms := timeMs(func() {
					for f, meta := range cl[0].Meta {
						_, err = pt.RenderParallelChecked(fovCfg, full[f], geom.Orientation{Yaw: meta.Yaw, Pitch: meta.Pitch}, 1)
					}
				})
				m.set("pt.render_ms_per_frame", ms/float64(len(cl[0].Meta)))
			})
			if err != nil {
				return err
			}
			m.set("pt.alloc_kb_per_frame", kb/float64(len(cl[0].Meta)))
		}
		// Modelled device energy (simulated, S+H, same users and plan).
		joules, frames := 0.0, 0
		for _, u := range e.sz.Users {
			tr := e.traces[u]
			tr.Samples = tr.Samples[:min(e.frames, len(tr.Samples))]
			r, err := client.Simulate(e.video, tr, plan, client.DefaultConfig(client.SH, client.OnlineStreaming))
			if err != nil {
				return err
			}
			joules += r.Ledger.Total()
			frames += r.FramesTotal
		}
		m.set("client.sim_energy_mj_per_frame", ratio(joules*1e3, float64(frames)))
	}

	if !probe.UseHAR {
		// The float PT the player runs per frame, and the LUT path that
		// could replace it (on no workload yet: ledger only).
		vpCfg := pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: e.viewport()}
		n := len(full)
		kb := allocKB(func() {
			for f := 0; f < n && err == nil; f++ {
				_, err = pt.RenderParallelChecked(vpCfg, full[f], imu.At(f), 1)
			}
		})
		if err != nil {
			return err
		}
		m.set("pt.alloc_kb_per_frame", kb/float64(n))
		var tbl *ptlut.Table
		m.set("ptlut.build_ms", timeMs(func() { tbl, err = ptlut.Build(vpCfg, imu.At(0), cfg.FullW, cfg.FullH, false, 1) }))
		if err != nil {
			return err
		}
		out := frame.New(vpCfg.Viewport.Width, vpCfg.Viewport.Height)
		ms := timeMs(func() {
			for f := 0; f < n; f++ {
				tbl.Apply(full[f], out, 0, out.H)
			}
		})
		m.set("ptlut.apply_ms_per_frame", ms/float64(n))
		lut, err := ptlut.NewRenderer(vpCfg, ptlut.NewCache(0, nil), ptlut.Options{QuantStep: ptlut.DefaultQuantStep})
		if err != nil {
			return err
		}
		for f := 0; f < e.frames && err == nil; f++ {
			_, err = lut.RenderChecked(full[f%n], imu.At(f), 1)
		}
		if err != nil {
			return err
		}
		cs := lut.Stats()
		m.set("ptlut.hit_ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses+cs.Coalesced)))
	}

	// The fetcher's cost over a bare GET of the same small document.
	const reps = 200
	ftch := client.NewFetcher(client.DefaultFetchConfig(), &http.Client{Transport: newTransport()})
	defer ftch.Close()
	bare := &http.Client{Transport: newTransport()}
	var viaFetcher, viaGet []float64
	for i := 0; i < reps; i++ {
		viaFetcher = append(viaFetcher, timeMs(func() { _, err = ftch.Manifest(e.url, e.video.Name) }))
		if err != nil {
			return err
		}
		viaGet = append(viaGet, timeMs(func() { err = bareManifest(bare, e.url, e.video.Name) }))
		if err != nil {
			return err
		}
	}
	m.set("client.fetch_overhead_us", (median(viaFetcher)-median(viaGet))*1e3)
	return nil
}

// bareManifest is what Fetcher.Manifest does, without the fetcher.
func bareManifest(hc *http.Client, baseURL, video string) error {
	resp, err := hc.Get(fmt.Sprintf("%s/v/%s/manifest", baseURL, video))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var man server.Manifest
	return json.Unmarshal(body, &man)
}
