package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"evr/internal/cache"
	"evr/internal/codec"
	"evr/internal/delivery"
	"evr/internal/server"
	"evr/internal/telemetry"
)

// FetchConfig tunes the client fetch layer: transport robustness (timeout,
// retries, response cap) and latency hiding (segment cache, async
// prefetch). The zero value disables caching and prefetching and applies no
// timeout; use DefaultFetchConfig for production-shaped defaults.
type FetchConfig struct {
	// Timeout bounds each HTTP attempt (connect through body read).
	// 0 = no timeout.
	Timeout time.Duration
	// MaxRetries is how many times a transient failure (network error,
	// timeout, 5xx, 429) is retried after the first attempt.
	MaxRetries int
	// BackoffBase is the pre-jitter delay before the first retry; each
	// subsequent retry doubles it up to BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff delay.
	BackoffMax time.Duration
	// MaxResponseBytes rejects any response body larger than this
	// (0 = unlimited). A lying or hostile origin cannot balloon client
	// memory past the cap.
	MaxResponseBytes int64
	// CacheSegments is the segment LRU capacity, counted in segments (FOV
	// videos, originals and tiles alike). The cache holds encoded segments,
	// so a hit saves the network, not the decode. 0 disables caching — and
	// with it prefetching, which has nowhere to park its results.
	CacheSegments int
	// Prefetch enables background fetching of the next segment's planned
	// payload while the current segment is displayed (§5.3's
	// latency-hiding counterpart): the FOV video the playback decision
	// would choose, or the original of a segment without FOV videos. A
	// FOV segment's original is fetched on demand, at its first miss.
	// Prefetched segments are not decoded until a frame needs them.
	Prefetch bool
	// LiveWaitMax bounds the total time one request spends waiting out
	// 425 "ahead of the live edge" responses. Live waits are expected
	// pacing, not failures, so they never consume MaxRetries — this is
	// their only bound. 0 = 30 s.
	LiveWaitMax time.Duration
	// BehindLive, when non-nil, receives a time-behind-live observation
	// (seconds between publish and receipt) for every at-edge live
	// segment fetched over the wire — the client half of the freshness
	// SLO. The load harness supplies a per-class histogram here.
	BehindLive *telemetry.Histogram
}

// DefaultFetchConfig returns the production defaults: 10 s per-attempt
// timeout, 3 retries with 50 ms–2 s exponential backoff, 64 MiB response
// cap, an 8-segment cache, and prefetching on.
func DefaultFetchConfig() FetchConfig {
	return FetchConfig{
		Timeout:          10 * time.Second,
		MaxRetries:       3,
		BackoffBase:      50 * time.Millisecond,
		BackoffMax:       2 * time.Second,
		MaxResponseBytes: 64 << 20,
		CacheSegments:    8,
		Prefetch:         true,
	}
}

// FetchCounters is a snapshot of the fetch layer's activity.
type FetchCounters struct {
	// CacheHits counts demand requests served without a new download:
	// from the segment cache or by joining an in-flight fetch.
	CacheHits int64
	// PrefetchHits is the subset of CacheHits whose content was put there
	// by the prefetcher — fetch latency fully hidden from playback.
	PrefetchHits int64
	// PrefetchIssued counts background prefetches started.
	PrefetchIssued int64
	// Retries counts retried HTTP attempts (after transient failures).
	Retries int64
	// RetryAfterWaits is the subset of Retries whose delay came from a
	// server Retry-After hint (clamped to BackoffMax) instead of the
	// client's own exponential backoff.
	RetryAfterWaits int64
	// TimedOut counts attempts cut off by the per-request timeout.
	TimedOut int64
	// BytesFetched is the total response bytes received over the wire.
	BytesFetched int64
	// Evictions counts segments dropped from the LRU cache.
	Evictions int64
	// LiveWaits counts 425 "ahead of the live edge" responses waited out
	// (outside the MaxRetries budget).
	LiveWaits int64
	// LiveSegments counts at-edge live segments fetched over the wire
	// (the freshness observations).
	LiveSegments int64
	// BehindLiveNsSum and BehindLiveNsMax aggregate the observed
	// time-behind-live in nanoseconds across those segments.
	BehindLiveNsSum int64
	BehindLiveNsMax int64
}

// Fetcher is the client's network layer: a retrying, timeout-bearing HTTP
// transport below an LRU cache of encoded segments, whose singleflight
// loading means a prefetch and an on-demand request for the same segment
// never download it twice. It hands out bitstreams, not frames: decoding
// belongs to the player, frame by frame. Safe for concurrent use.
type Fetcher struct {
	cfg   FetchConfig
	http  *http.Client
	cache *segmentCache
	// trace, set by the owning Player, receives a StageFetch (network
	// transfer) observation for every request — demand and prefetch alike,
	// so hidden prefetch work is visible too. Cache hits observe nothing: no
	// work was done. Decode is timed in the player's frame spans. nil
	// disables stage timing at a cost of a few nanoseconds per request.
	trace *telemetry.Tracer

	// ctx parents every attempt's request context and gates retry backoff;
	// Close cancels it so in-flight transfers and backoff sleeps abort
	// promptly instead of running to their full timeout.
	ctx    context.Context
	cancel context.CancelFunc

	// rng feeds backoff jitter. Per-fetcher and mutex-guarded rather than
	// the global math/rand source: backoff must not contend with (or be
	// reseeded under) unrelated packages' use of the global generator.
	rngMu sync.Mutex
	rng   *rand.Rand

	wg sync.WaitGroup // outstanding prefetch goroutines

	// liveEdge records, per video, the live edge at session join: only
	// segments at or past it are "at edge" for freshness accounting —
	// the DVR backlog a late joiner replays is stale by definition.
	liveMu   sync.Mutex
	liveEdge map[string]int

	cacheHits       atomic.Int64
	prefetchHits    atomic.Int64
	prefetchIssued  atomic.Int64
	retries         atomic.Int64
	retryAfterWaits atomic.Int64
	timedOut        atomic.Int64
	bytesFetched    atomic.Int64
	liveWaits       atomic.Int64
	liveSegments    atomic.Int64
	behindSumNs     atomic.Int64
	behindMaxNs     atomic.Int64
}

// NewFetcher builds a fetcher. A nil httpClient gets a default client whose
// end-to-end timeout matches cfg.Timeout; a caller-supplied client is used
// as-is, with cfg.Timeout still enforced per attempt via request contexts.
func NewFetcher(cfg FetchConfig, httpClient *http.Client) *Fetcher {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: cfg.Timeout}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Fetcher{
		cfg:      cfg,
		http:     httpClient,
		cache:    newSegmentCache(cfg.CacheSegments),
		ctx:      ctx,
		cancel:   cancel,
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		liveEdge: make(map[string]int),
	}
}

// SetLiveEdge records the live edge of a video at session join. The player
// calls this after fetching a live manifest; segments at or past the edge
// then feed the time-behind-live accounting.
func (f *Fetcher) SetLiveEdge(video string, edge int) {
	f.liveMu.Lock()
	f.liveEdge[video] = edge
	f.liveMu.Unlock()
}

// Close shuts the fetcher down: in-flight attempts are canceled, pending
// retry backoffs abort immediately, and outstanding prefetch goroutines are
// waited out. The fetcher must not be used afterwards.
func (f *Fetcher) Close() {
	f.cancel()
	f.wg.Wait()
}

// Counters snapshots the fetch layer's activity counters.
func (f *Fetcher) Counters() FetchCounters {
	return FetchCounters{
		CacheHits:       f.cacheHits.Load(),
		PrefetchHits:    f.prefetchHits.Load(),
		PrefetchIssued:  f.prefetchIssued.Load(),
		Retries:         f.retries.Load(),
		RetryAfterWaits: f.retryAfterWaits.Load(),
		TimedOut:        f.timedOut.Load(),
		BytesFetched:    f.bytesFetched.Load(),
		Evictions:       f.cache.Stats().Evictions,
		LiveWaits:       f.liveWaits.Load(),
		LiveSegments:    f.liveSegments.Load(),
		BehindLiveNsSum: f.behindSumNs.Load(),
		BehindLiveNsMax: f.behindMaxNs.Load(),
	}
}

// Manifest fetches and parses a video's manifest. Manifests are small,
// change on re-ingest, and are fetched once per playback, so they bypass
// the segment cache but still get the retrying transport.
func (f *Fetcher) Manifest(baseURL, video string) (*server.Manifest, error) {
	body, err := f.get(baseURL + "/v/" + video + "/manifest")
	if err != nil {
		return nil, err
	}
	var man server.Manifest
	if err := json.Unmarshal(body, &man); err != nil {
		return nil, fmt.Errorf("client: parsing manifest: %w", err)
	}
	return &man, nil
}

// Segment returns one payload's encoded stream — and, for a FOV video, its
// per-frame metadata — from cache when possible. The stream has passed
// codec.ParseSegment's checks but is not decoded: the caller decodes the
// frames it needs. Retries, the response cap and singleflight apply per
// payload, tiles included.
func (f *Fetcher) Segment(baseURL string, ref server.Ref) (*codec.Bitstream, []server.FrameMeta, error) {
	return f.segment(ref, false, func() (*segmentEntry, error) { return f.load(baseURL, ref) })
}

// Prefetch warms the cache with one payload in the background: it fetches
// and unmarshals the payload, it does not decode it.
func (f *Fetcher) Prefetch(baseURL string, ref server.Ref) {
	f.prefetchSegment(ref, func() (*segmentEntry, error) { return f.load(baseURL, ref) })
}

// Wait blocks until all outstanding prefetches have completed.
func (f *Fetcher) Wait() { f.wg.Wait() }

// prefetchSegment spawns a background fill of one segment. Prefetch errors
// are swallowed: a later demand fetch retries and reports them.
func (f *Fetcher) prefetchSegment(ref server.Ref, load func() (*segmentEntry, error)) {
	if f.cfg.CacheSegments <= 0 || !f.cfg.Prefetch {
		return
	}
	f.prefetchIssued.Add(1)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.segment(ref, true, load) //nolint:errcheck // best-effort warm-up
	}()
}

// segment serves one segment through the cache: resident entries and joined
// in-flight loads count as CacheHits for demand requests, and the first
// demand request to receive a prefetched entry — resident or still loading —
// claims its one PrefetchHit. A prefetch of a resident segment is a no-op
// that neither promotes the entry nor touches its flag.
func (f *Fetcher) segment(ref server.Ref, prefetch bool, load func() (*segmentEntry, error)) (*codec.Bitstream, []server.FrameMeta, error) {
	if prefetch && f.cache.Contains(ref) {
		return nil, nil, nil
	}
	e, outcome, err := f.cache.Get(ref, func() (*segmentEntry, error) {
		e, err := load()
		if err == nil && prefetch {
			e.prefetched.Store(true)
		}
		return e, err
	})
	if !prefetch && outcome != cache.Miss {
		f.cacheHits.Add(1)
		if err == nil && e.prefetched.CompareAndSwap(true, false) {
			f.prefetchHits.Add(1)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return e.bits, e.meta, nil
}

// load downloads and parses one payload — the segment header's checks run
// here, once for every frame — so a payload that is corrupt at the framing
// or header level fails here, not mid-playback. The kind decides only the
// envelope: a tile wraps its segment, a FOV video brings its metadata
// along, and everything else is a bare segment.
func (f *Fetcher) load(baseURL string, ref server.Ref) (*segmentEntry, error) {
	payload, err := f.getLive(baseURL+ref.Path(), ref.Video, ref.Seg)
	if err != nil {
		return nil, err
	}
	e := &segmentEntry{}
	if ref.Kind == server.Tile {
		e.bits, err = unwrapTile(payload, ref.A, ref.B)
	} else {
		e.bits, err = server.UnmarshalBitstream(payload)
	}
	if err == nil && ref.Kind == server.FOV {
		e.meta, err = f.loadFOVMeta(baseURL, ref, len(e.bits.Frames))
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// loadFOVMeta downloads and parses the per-frame metadata of the FOV video
// at ref — the FOVMeta payload of the same address — which must hold one
// orientation per frame of the video's stream.
func (f *Fetcher) loadFOVMeta(baseURL string, ref server.Ref, frames int) ([]server.FrameMeta, error) {
	ref.Kind = server.FOVMeta
	raw, err := f.getLive(baseURL+ref.Path(), ref.Video, ref.Seg)
	if err != nil {
		return nil, err
	}
	meta, err := server.UnmarshalFrameMeta(raw, frames)
	if err != nil {
		return nil, fmt.Errorf("client: parsing FOV metadata: %w", err)
	}
	return meta, nil
}

// unwrapTile unmarshals one tile payload, verifying the wire header names the
// tile that was asked for — a confused (or hostile) origin must not paint the
// wrong rectangle.
func unwrapTile(payload []byte, tile, rung int) (*codec.Bitstream, error) {
	p, err := delivery.UnmarshalTile(payload)
	if err != nil {
		return nil, err
	}
	if p.Tile != tile || p.Rung != rung {
		return nil, fmt.Errorf("client: asked for tile %d rung %d, payload is tile %d rung %d", tile, rung, p.Tile, p.Rung)
	}
	return p.Bits, nil
}

// get performs one HTTP GET with per-attempt timeout, bounded retries with
// exponential backoff + jitter on transient failures, and the response
// size cap. The whole call — retries and backoff included — is observed as
// the fetch stage: it is the transfer wait the pipeline actually sees.
func (f *Fetcher) get(url string) ([]byte, error) {
	return f.getLive(url, "", -1)
}

// getLive is get with live-edge awareness: a 425 "Too Early" response —
// the request is ahead of the live edge — parks the request until the
// segment is due rather than burning retry budget. The wait honors the
// server's Retry-After hint when present (a live origin knows exactly when
// the segment publishes) and is bounded by LiveWaitMax in total, so a
// stalled producer surfaces as a fetch error instead of a hung player.
// video/seg identify the segment for freshness accounting; video == ""
// (or seg < 0) disables both the live wait cap bookkeeping and the
// behind-live observation.
func (f *Fetcher) getLive(url, video string, seg int) ([]byte, error) {
	tm := f.trace.StartTimer(telemetry.StageFetch)
	defer tm.Stop()
	var lastErr error
	var liveDeadline time.Time
	for attempt := 0; ; {
		body, header, err, transient, tooEarly, retryAfter := f.attempt(url)
		if err == nil {
			f.observeLive(video, seg, header)
			return body, nil
		}
		lastErr = err
		if tooEarly {
			// Ahead of the live edge. Waiting out the publish schedule is
			// expected behavior, not origin trouble: it never consumes the
			// retry budget, but the total wait per request is capped.
			waitMax := f.cfg.LiveWaitMax
			if waitMax <= 0 {
				waitMax = 30 * time.Second
			}
			now := time.Now()
			if liveDeadline.IsZero() {
				liveDeadline = now.Add(waitMax)
			} else if now.After(liveDeadline) {
				return nil, fmt.Errorf("%w (gave up waiting for live edge after %v)", lastErr, waitMax)
			}
			f.liveWaits.Add(1)
			d := retryAfter
			if d <= 0 {
				d = f.cfg.BackoffBase
			}
			if d < 20*time.Millisecond {
				d = 20 * time.Millisecond
			}
			if rest := time.Until(liveDeadline); d > rest {
				d = rest
			}
			if err := f.sleep(d); err != nil {
				return nil, fmt.Errorf("%w (live wait aborted: %v)", lastErr, err)
			}
			continue
		}
		if !transient || attempt >= f.cfg.MaxRetries {
			return nil, lastErr
		}
		f.retries.Add(1)
		if err := f.backoff(attempt, retryAfter); err != nil {
			// Shut down mid-backoff: report the failure we were about to
			// retry, annotated with why the retry never ran.
			return nil, fmt.Errorf("%w (retry aborted: %v)", lastErr, err)
		}
		attempt++
	}
}

// observeLive records how far behind the live edge a fetched segment was
// delivered, using the publish timestamp the server stamps on live
// responses. Only segments at or past the live edge observed when the
// player joined count — the DVR backlog a late joiner replays is not a
// freshness violation.
func (f *Fetcher) observeLive(video string, seg int, header http.Header) {
	if video == "" || seg < 0 || header == nil {
		return
	}
	v := header.Get(server.PublishedAtHeader)
	if v == "" {
		return
	}
	f.liveMu.Lock()
	edge, ok := f.liveEdge[video]
	f.liveMu.Unlock()
	if !ok || seg < edge {
		return
	}
	publishedNs, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return
	}
	behind := time.Now().UnixNano() - publishedNs
	if behind < 0 {
		behind = 0
	}
	f.liveSegments.Add(1)
	f.behindSumNs.Add(behind)
	for {
		cur := f.behindMaxNs.Load()
		if behind <= cur || f.behindMaxNs.CompareAndSwap(cur, behind) {
			break
		}
	}
	if f.cfg.BehindLive != nil {
		f.cfg.BehindLive.Observe(float64(behind) / 1e9)
	}
}

// attempt is one HTTP round trip. transient reports whether the failure is
// worth retrying; tooEarly marks a 425 (ahead of the live edge) response;
// retryAfter carries the server's Retry-After hint on a shed (503/429) or
// too-early (425) response, 0 when absent. header is non-nil only on
// success.
func (f *Fetcher) attempt(url string) (body []byte, header http.Header, err error, transient, tooEarly bool, retryAfter time.Duration) {
	ctx := f.ctx
	if f.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.cfg.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("client: GET %s: %w", url, err), false, false, 0
	}
	resp, err := f.http.Do(req)
	if err != nil {
		if isTimeout(err) {
			f.timedOut.Add(1)
		}
		return nil, nil, fmt.Errorf("client: GET %s: %w", url, err), true, false, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain a little so the connection can be reused, then classify:
		// 5xx and 429 are origin trouble worth retrying, 425 means the
		// request is ahead of the live edge, other statuses (404, 400, ...)
		// are permanent. A shedding origin's Retry-After hint rides along so
		// the backoff (or live wait) can honor it.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		transient = resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
		tooEarly = resp.StatusCode == http.StatusTooEarly
		if transient || tooEarly {
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		}
		return nil, nil, fmt.Errorf("client: GET %s: %s", url, resp.Status), transient, tooEarly, retryAfter
	}
	limit := f.cfg.MaxResponseBytes
	if limit > 0 && resp.ContentLength > limit {
		return nil, nil, fmt.Errorf("client: GET %s: advertised %d bytes exceeds %d-byte cap", url, resp.ContentLength, limit), false, false, 0
	}
	var r io.Reader = resp.Body
	if limit > 0 {
		r = io.LimitReader(resp.Body, limit+1)
	}
	// An advertised length within the cap sizes the buffer once; otherwise
	// it grows from io.ReadAll's 512 bytes. A body shorter than advertised
	// still fails below, with the transport's unexpected-EOF error.
	size := int64(512)
	if limit > 0 && resp.ContentLength >= 0 {
		size = resp.ContentLength
	}
	body, err = readAll(r, size)
	if err != nil {
		if isTimeout(err) {
			f.timedOut.Add(1)
		}
		return nil, nil, fmt.Errorf("client: GET %s: reading body: %w", url, err), true, false, 0
	}
	if limit > 0 && int64(len(body)) > limit {
		return nil, nil, fmt.Errorf("client: GET %s: response exceeds %d-byte cap", url, limit), false, false, 0
	}
	f.bytesFetched.Add(int64(len(body)))
	return body, resp.Header, nil, false, false, 0
}

// readAll is io.ReadAll with a starting capacity: a body of exactly size
// bytes is read into one allocation (the extra byte leaves room for the read
// that reports EOF), a longer one grows as io.ReadAll's does.
func readAll(r io.Reader, size int64) ([]byte, error) {
	b := make([]byte, 0, size+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// parseRetryAfter interprets a Retry-After header value: delay-seconds or
// an HTTP-date (RFC 9110 §10.2.3). Absent, malformed, or past values give
// 0 — the exponential backoff takes over.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// backoff waits out the delay before a retry attempt. When the failed
// response carried a Retry-After hint, that hint is honored — clamped to
// BackoffMax, because a hostile or misconfigured origin must not park the
// client for minutes — and taken verbatim (no jitter: the server is already
// spreading its own load). Otherwise the client falls back to exponential
// backoff with up to 50% additive jitter so synchronized clients don't
// stampede a recovering origin. (The fetcher used to ignore Retry-After
// entirely, retrying an admission-controlled 503 on its own much shorter
// schedule and re-hitting the shedding server while it was still over
// capacity.) The wait is interruptible: closing the fetcher aborts it
// immediately and backoff returns the cancellation cause.
func (f *Fetcher) backoff(attempt int, retryAfter time.Duration) error {
	var d time.Duration
	if retryAfter > 0 {
		d = retryAfter
		if f.cfg.BackoffMax > 0 && d > f.cfg.BackoffMax {
			d = f.cfg.BackoffMax
		}
		f.retryAfterWaits.Add(1)
	} else {
		d = f.cfg.BackoffBase
		if d <= 0 {
			return f.ctx.Err()
		}
		for i := 0; i < attempt && d < f.cfg.BackoffMax; i++ {
			d *= 2
		}
		if f.cfg.BackoffMax > 0 && d > f.cfg.BackoffMax {
			d = f.cfg.BackoffMax
		}
		f.rngMu.Lock()
		jitter := time.Duration(f.rng.Int63n(int64(d)/2 + 1))
		f.rngMu.Unlock()
		d += jitter
	}
	return f.sleep(d)
}

// sleep waits out d, aborting immediately when the fetcher shuts down.
func (f *Fetcher) sleep(d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-f.ctx.Done():
		return f.ctx.Err()
	}
}

// isTimeout reports whether an HTTP failure was a timeout.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
