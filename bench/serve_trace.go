package main

import (
	"fmt"
	"net/http"

	"evr/internal/cluster"
	"evr/internal/server"
)

// tracedServe is the traced run of serve_zipf: a short window of direct
// calls (the measured run's way) for the cache counters; the same request
// order over real loopback connections, untraced for the request-side
// numbers and traced for the wire and serve spans; and the probes of the
// serving layers.
func tracedServe(w *workload, opt options) (result, map[string]any, error) {
	rec := newRecorder()
	env, err := setupServe(opt.sz, rec.handler)
	if err != nil {
		return result{}, nil, err
	}
	defer env.shutdown()
	warm := opt
	warm.tamper = nil
	env.runServe(warm, measuredCallers, 0, opt.sz.Warm, func() caller { return env.directCaller(warm) })
	m := newLayerMetrics()

	direct := env.runServe(opt, measuredCallers, opt.seconds/4, 0, func() caller { return env.directCaller(opt) }).summary()
	contended := env.runServe(opt, opt.conns, opt.seconds/4, 0, func() caller { return env.directCaller(opt) }).summary()
	plain := env.runServe(opt, opt.conns, 0, opt.sz.TracedRequests, func() caller { return env.tcpCaller(nil) }).summary()
	win := env.runServe(opt, opt.conns, 0, opt.sz.TracedRequests, func() caller {
		return env.tcpCaller(func(next http.RoundTripper) http.RoundTripper { return rec.transport(next, nil) })
	})
	traced := win.summary()
	failed := direct.failed + contended.failed + plain.failed + traced.failed
	res := result{
		Attempted: direct.requests + contended.requests + plain.requests + traced.requests, Failed: failed,
		Correct: failed == 0, Metrics: m,
	}
	info := direct.info(opt, env)
	direct.log(w.name+" (direct calls)", opt, info)
	plain.log(w.name+" (loopback TCP)", opt, plain.info(opt, env))

	m.set("trace_overhead_pct", 100*ratio(plain.reqPerS-traced.reqPerS, plain.reqPerS))
	opt.logf("%s: loopback req_per_s untraced %.0f, traced %.0f: trace_overhead_pct %.2f",
		w.name, plain.reqPerS, traced.reqPerS, m["trace_overhead_pct"].Value)
	m.set("loadgen.requests", float64(len(plain.ms)))
	m.set("loadgen.req_per_s", plain.reqPerS)
	setLatency(m, plain.ms)
	m.set("gen.lag_ms", plain.lagMs)
	m.set("cluster.edge_hit_ratio", direct.edgeHitRatio)
	m.set("server.respcache_hit_ratio", direct.respHitRatio)
	m.set("cluster.purges", float64(len(direct.purgeUs)))
	m.set("cluster.purge_us", mean(direct.purgeUs))
	m.set("cluster.reroutes", float64(direct.reroutes))
	m.set("cluster.two_caller_speedup", ratio(contended.reqPerS, direct.reqPerS))
	opt.logf("%s: direct calls, req_per_s with %d caller %.0f, with %d callers %.0f: cluster.two_caller_speedup %.3f",
		w.name, measuredCallers, direct.reqPerS, opt.conns, contended.reqPerS, m["cluster.two_caller_speedup"].Value)

	// Every request's time is a wire span; what its serve child does not
	// cover is loopback plus the HTTP stack on both ends.
	wallMs := 0.0
	for _, c := range win.conns {
		wallMs += c.busySec * 1e3
	}
	rows := rec.layers(0, wallMs)
	printLayers(opt.logf, fmt.Sprintf("%s: %d traced requests, against %.0f ms of request time (all connections)", w.name, traced.requests, wallMs), rows)
	wire, serve := row(rows, "wire"), row(rows, "serve")
	m.set("wire.busy_ms", wire.BusyMs)
	m.set("serve.busy_ms", serve.BusyMs)
	m.set("share.wire_pct", wire.SharePct)
	m.set("share.serve_pct", serve.SharePct)
	m.set("replay_cover_pct", wire.SharePct+serve.SharePct)

	if err := env.probes(m); err != nil {
		return result{}, nil, err
	}
	path, err := rec.writeTrace(opt.outDir, w.name)
	if err != nil {
		return result{}, nil, err
	}
	opt.logf("%s: wrote %s", w.name, path)
	info["layers"] = rows
	return res, info, nil
}

// handlerUs is the median time of one direct handler call (no TCP) per
// path, after one untimed pass over the same paths.
func handlerUs(h http.Handler, paths []string) (float64, error) {
	var us []float64
	for pass := 0; pass < 2; pass++ {
		for _, p := range paths {
			var code int
			ms := timeMs(func() { code, _ = handlerGet(h, p) })
			if code != http.StatusOK {
				return 0, fmt.Errorf("probe: GET %s: status %d", p, code)
			}
			if pass == 1 {
				us = append(us, ms*1e3)
			}
		}
	}
	return median(us), nil
}

// probes times the serving layers one at a time, through their handlers:
// a single service answering from its response cache and from the store,
// and the router against a shard's own handler.
func (e *serveEnv) probes(m layerMetrics) error {
	cfg := ingestConfig(e.sz.ServeW, e.sz.ServeSegs)
	cfg.Tiled = true
	if _, err := ingestProbe(m, e.specs[0], cfg); err != nil {
		return err
	}
	for _, p := range []struct {
		metric string
		opts   server.ServiceOptions
	}{
		{"server.handler_us_hit", server.DefaultServiceOptions()},
		{"server.handler_us_miss", server.ServiceOptions{RespCacheBytes: -1}},
	} {
		svc := server.NewServiceOpts(e.store, p.opts)
		for _, man := range e.mans {
			svc.Publish(man)
		}
		us, err := handlerUs(svc.Handler(), e.paths)
		if err != nil {
			return err
		}
		m.set(p.metric, us)
	}
	// Edge off, so the router forwards every request to a shard.
	opts := cluster.DefaultOptions()
	opts.EdgeCacheBytes = -1
	cl, err := cluster.New(e.store, opts)
	if err != nil {
		return err
	}
	for _, man := range e.mans {
		cl.Publish(man)
	}
	routed, err := handlerUs(cl.Handler(), e.paths)
	if err != nil {
		return err
	}
	direct, err := handlerUs(cl.Shard(0).Handler(), e.paths)
	if err != nil {
		return err
	}
	m.set("cluster.router_overhead_us", routed-direct)
	return nil
}
