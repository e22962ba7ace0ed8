// Package loadgen is the multi-user load harness for the EVR serving
// path: it spins up N synthetic users, each replaying their deterministic
// head trace (internal/headtrace) through the real HTTP client fetch layer
// and player against an in-process or remote EVR server, and reports
// per-user FOV-hit rates, request-latency quantiles, cache effectiveness
// on both sides of the wire, and aggregate throughput.
//
// The same engine drives the evrload CLI and the CI concurrency soak: the
// driver is deterministic per (video, user) — every pass replays identical
// traces, so displayed-frame checksums must match pass to pass, which is
// how the soak proves the serving path's caches never change pixels.
package loadgen

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"sync"
	"time"

	"evr/internal/client"
	"evr/internal/cluster"
	"evr/internal/frame"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/telemetry"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the target server. Required; ServeHandler puts an
	// in-process tier's Handler on one.
	BaseURL string
	// Classes is the user population, at least one class: each class
	// contributes its own user count, video, delivery mode, PTE bitwidth,
	// cache budget, and modeled link, and the report carries per-class
	// aggregates. ZipfClasses builds a Zipf-popular multi-video population.
	Classes []ClassSpec
	// Passes replays the whole user set this many times (≥ 1). Players
	// are fresh each pass — client caches start cold — so pass 2 onward
	// measures the server-side response cache, not the client's.
	Passes int
	// Segments bounds each playback (0 = all published segments).
	Segments int
	// ViewportScale shrinks rendered viewports (0 = the player default).
	ViewportScale int
	// Resilient survives corrupt payloads instead of aborting a session.
	Resilient bool
	// Fetch tunes each session's fetch layer. nil = client defaults.
	Fetch *client.FetchConfig
	// HTTP optionally overrides the shared HTTP client. nil builds one
	// transport sized for every concurrent session; sharing it across
	// players is deliberate — connection reuse is what a real multi-user
	// edge sees.
	HTTP *http.Client
	// Tier, when the target is in-process, lets the report include the
	// serving tier's deltas per pass: its shards' summed response-cache and
	// admission counters and, behind a router (Shards ≥ 1), per-shard load
	// skew, reroute counts and edge-cache deltas.
	Tier *cluster.Cluster
	// OnPassStart, when set, runs before each pass's sessions launch —
	// the hook evrload's mid-run shard kill uses.
	OnPassStart func(pass int)
	// WrapTransport, when set, wraps each user's HTTP transport — the
	// chaos engine's per-client fault-injection hook. The wrapper sits
	// under the latency-timing layer, so injected delay and loss show up
	// in the report's latency quantiles like real network trouble would.
	WrapTransport func(user int, class string, base http.RoundTripper) http.RoundTripper
	// FrameSink, when set, receives each successful session's displayed
	// frames — the hook evrload's frontier sweep uses to score viewport
	// PSNR across delivery modes. Called concurrently from session
	// goroutines; the sink must be safe for concurrent use.
	FrameSink func(user, pass int, video string, frames []*frame.Frame)
}

// UserResult is one session's outcome.
type UserResult struct {
	User    int
	Pass    int
	Class   string // the user's fleet class
	Video   string // the video the user's class plays
	Err     error
	Elapsed time.Duration
	Stats   client.PlaybackStats
	// Checksum is an FNV-1a hash of every displayed frame's pixels, in
	// order. Identical traces must produce identical checksums regardless
	// of cache configuration or concurrency — the soak's core assertion.
	Checksum uint64
}

// HitRate returns the session's FOV-hit fraction.
func (r UserResult) HitRate() float64 {
	if r.Stats.Frames == 0 {
		return 0
	}
	return float64(r.Stats.Hits) / float64(r.Stats.Frames)
}

// PassStats aggregates one pass: the summed playback counters of its
// successful sessions, and the pass's own timing and serving deltas.
type PassStats struct {
	client.PlaybackStats
	Pass         int
	Elapsed      time.Duration
	Sessions     int
	Failures     int
	HitRate      float64
	FramesPerSec float64
	Tier         *ClusterDelta // nil for remote targets
	// P50/P99 are this pass's request-latency quantiles (histogram-delta
	// estimates) — how a mid-run shard kill shows up as a tail-latency
	// bump without corrupting frames.
	P50 time.Duration
	P99 time.Duration
}

// LatencySummary is the aggregate HTTP request-latency view, measured at
// the transport across every session and pass (retries count per attempt).
type LatencySummary struct {
	Requests int64
	Errors   int64 // transport errors and non-2xx responses
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	Max      time.Duration
}

// Report is the full outcome of a load run.
type Report struct {
	Video    string   // the first class's video
	Videos   []string // every distinct video, when the classes play more than one
	Users    int
	Passes   int
	Segments int
	Results  []UserResult // Users × Passes entries
	PerPass  []PassStats
	Classes  []ClassStats
	Latency  LatencySummary
	Elapsed  time.Duration
}

// Failures returns the failed sessions.
func (r *Report) Failures() []UserResult {
	var out []UserResult
	for _, u := range r.Results {
		if u.Err != nil {
			out = append(out, u)
		}
	}
	return out
}

// timingTransport observes every HTTP round trip into a shared latency
// histogram — the request-latency distribution the whole report quotes.
// The histogram and counters are pointers so per-user instances (built
// when WrapTransport stacks a fault layer under the timing layer) all
// feed the same distribution.
type timingTransport struct {
	base     http.RoundTripper
	hist     *telemetry.Histogram
	requests *telemetry.Counter
	errors   *telemetry.Counter
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.hist.ObserveDuration(time.Since(start))
	t.requests.Inc()
	if err != nil || resp.StatusCode >= 400 {
		t.errors.Inc()
	}
	return resp, err
}

// ServeHandler exposes a handler — an in-process tier's — on an ephemeral
// loopback listener, returning its base URL and a shutdown func. It is how
// evrload and the soak test run "against an in-process server" without
// leaving the process. The shutdown func drains
// gracefully: in-flight requests get up to 5 s to complete before the
// server is torn down hard. (It used to call http.Server.Close, which
// dropped in-flight requests on the floor and salted multi-pass runs with
// spurious transport errors when a pass's tail requests overlapped the
// teardown.)
func ServeHandler(h http.Handler) (baseURL string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("loadgen: listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // closed via shutdown
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close() // drain deadline blown: drop what's left
		}
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// Run executes the load: Passes waves of every class's users, each a
// concurrent playback session. Setup failures return an error; per-session
// failures land in the report (and in Report.Failures) so one bad session
// doesn't mask the other N-1 measurements.
func Run(cfg Config) (*Report, error) {
	users, err := ValidateClasses(cfg.Classes)
	if err != nil {
		return nil, err
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required (use ServeHandler for an in-process server)")
	}
	if cfg.Passes < 1 {
		cfg.Passes = 1
	}
	fleet, err := newFleetState(cfg.Classes, users)
	if err != nil {
		return nil, err
	}
	fetch := client.DefaultFetchConfig()
	if cfg.Fetch != nil {
		fetch = *cfg.Fetch
	}

	tt := &timingTransport{
		base: &http.Transport{
			MaxIdleConns:        users * 2,
			MaxIdleConnsPerHost: users * 2,
		},
		hist:     telemetry.NewHistogram(telemetry.DefaultLatencyBuckets()),
		requests: &telemetry.Counter{},
		errors:   &telemetry.Counter{},
	}
	httpClient := cfg.HTTP
	if httpClient == nil {
		httpClient = &http.Client{Transport: tt}
	} else {
		// Keep the caller's client but still measure through it.
		base := httpClient.Transport
		if base == nil {
			base = http.DefaultTransport
		}
		tt.base = base
		wrapped := *httpClient
		wrapped.Transport = tt
		httpClient = &wrapped
	}

	// Each user plays its class's video, and traces are generated once and
	// replayed every pass: determinism is the property the soak leans on.
	traces := make([]headtrace.Trace, users)
	for u := range traces {
		traces[u] = headtrace.Generate(fleet.specs[fleet.byUser[u]], u)
	}

	// Per-user HTTP clients exist only when a fault layer wraps each
	// user's transport; the timing layer on top still feeds one shared
	// histogram, so the report's latency view spans the whole fleet.
	clients := make([]*http.Client, users)
	for u := range clients {
		if cfg.WrapTransport == nil {
			clients[u] = httpClient
			continue
		}
		clients[u] = &http.Client{Transport: &timingTransport{
			base:     cfg.WrapTransport(u, cfg.Classes[fleet.byUser[u]].Name, tt.base),
			hist:     tt.hist,
			requests: tt.requests,
			errors:   tt.errors,
		}}
	}

	rep := &Report{Video: fleet.specs[0].Name, Users: users, Passes: cfg.Passes, Segments: cfg.Segments}
	if vids := classVideos(fleet); len(vids) > 1 {
		rep.Videos = vids
	}
	start := time.Now()
	for pass := 1; pass <= cfg.Passes; pass++ {
		if cfg.OnPassStart != nil {
			cfg.OnPassStart(pass)
		}
		var beforeTier cluster.Stats
		if cfg.Tier != nil {
			beforeTier = cfg.Tier.Stats()
		}
		beforeLatency := tt.hist.Snapshot()

		results := make([]UserResult, users)
		passStart := time.Now()
		var wg sync.WaitGroup
		for u := 0; u < users; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				ci := fleet.byUser[u]
				results[u] = runSession(cfg, fetch, clients[u], &cfg.Classes[ci], fleet.specs[ci].Name, fleet.behind[ci], traces[u], u, pass)
			}(u)
		}
		wg.Wait()
		passElapsed := time.Since(passStart)

		ps := PassStats{Pass: pass, Elapsed: passElapsed, Sessions: users}
		for _, r := range results {
			if r.Err != nil {
				ps.Failures++
				continue
			}
			ps.Add(r.Stats)
		}
		if ps.Frames > 0 {
			ps.HitRate = float64(ps.Hits) / float64(ps.Frames)
			ps.FramesPerSec = float64(ps.Frames) / passElapsed.Seconds()
		}
		if cfg.Tier != nil {
			ps.Tier = clusterDelta(beforeTier, cfg.Tier.Stats())
		}
		passLatency := deltaSnapshot(beforeLatency, tt.hist.Snapshot())
		ps.P50 = time.Duration(passLatency.Quantile(0.50) * float64(time.Second))
		ps.P99 = time.Duration(passLatency.Quantile(0.99) * float64(time.Second))
		rep.PerPass = append(rep.PerPass, ps)
		rep.Results = append(rep.Results, results...)
	}
	rep.Elapsed = time.Since(start)
	rep.Classes = aggregateClasses(fleet, rep.Results)

	snap := tt.hist.Snapshot()
	rep.Latency = LatencySummary{
		Requests: tt.requests.Value(),
		Errors:   tt.errors.Value(),
		P50:      time.Duration(snap.Quantile(0.50) * float64(time.Second)),
		P95:      time.Duration(snap.Quantile(0.95) * float64(time.Second)),
		P99:      time.Duration(snap.Quantile(0.99) * float64(time.Second)),
		Max:      time.Duration(snap.Max * float64(time.Second)),
	}
	return rep, nil
}

// runSession plays one user's trace through a fresh player on the shared
// (or per-user fault-wrapped) HTTP client and summarizes it. cs is the
// user's class profile and behind its class's behind-live histogram.
func runSession(cfg Config, fetch client.FetchConfig, httpClient *http.Client, cs *ClassSpec, video string, behind *telemetry.Histogram, trace headtrace.Trace, user, pass int) UserResult {
	p := client.NewPlayer(cfg.BaseURL)
	p.HTTP = httpClient
	p.Fetch = fetch
	p.Fetch.BehindLive = behind
	if cs.CacheSegments > 0 {
		p.Fetch.CacheSegments = cs.CacheSegments
	}
	p.UseHAR = cs.UseHAR
	p.PTEFormat = cs.PTEFormat
	p.Resilient = cfg.Resilient
	// Every session of the pass already runs concurrently: a per-player
	// render pool would only oversubscribe the host.
	p.Workers = 1
	if cfg.ViewportScale > 0 {
		p.ViewportScale = cfg.ViewportScale
	}
	if cs.ViewportScale > 0 {
		p.ViewportScale = cs.ViewportScale
	}
	if tc := cs.tiledConfig(); tc != nil {
		p.Tiled = *tc
	}
	start := time.Now()
	stats, frames, err := p.Play(video, hmd.NewIMU(trace), cfg.Segments)
	if err == nil && cfg.FrameSink != nil {
		cfg.FrameSink(user, pass, video, frames)
	}
	return UserResult{
		User:     user,
		Pass:     pass,
		Class:    cs.Name,
		Video:    video,
		Err:      err,
		Elapsed:  time.Since(start),
		Stats:    stats,
		Checksum: ChecksumFrames(frames),
	}
}

// ChecksumFrames hashes displayed frames (dimensions and pixels, in
// order) — the pass-to-pass and config-to-config byte-identity probe.
func ChecksumFrames(frames []*frame.Frame) uint64 {
	h := fnv.New64a()
	var dims [8]byte
	for _, f := range frames {
		dims[0], dims[1], dims[2], dims[3] = byte(f.W), byte(f.W>>8), byte(f.W>>16), byte(f.W>>24)
		dims[4], dims[5], dims[6], dims[7] = byte(f.H), byte(f.H>>8), byte(f.H>>16), byte(f.H>>24)
		h.Write(dims[:]) //nolint:errcheck // fnv never fails
		h.Write(f.Pix)   //nolint:errcheck
	}
	return h.Sum64()
}
