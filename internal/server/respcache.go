package server

import (
	"errors"
	"time"

	"evr/internal/cache"
	"evr/internal/telemetry"
)

// ServiceOptions tunes the serving path for multi-user load: the response
// cache that keeps hot encoded payloads out of the store, and the
// admission-control knob that sheds load instead of queueing it. The zero
// value disables both — the seed behavior of a cold store.Get per request.
type ServiceOptions struct {
	// RespCacheBytes bounds the server-side response cache of encoded
	// segment payloads (every Kind: originals, FOV videos and metadata,
	// tiles, backfill), in bytes of cached payload. ≤ 0 disables the cache; concurrent identical misses
	// then each hit the store on their own.
	RespCacheBytes int64
	// MaxInFlight caps concurrently served payload requests (every Kind;
	// catalog, manifest and metrics are exempt).
	// Beyond the cap the server answers 503 with a Retry-After header
	// instead of queueing, so overload degrades into client backoff rather
	// than unbounded goroutine pile-up. ≤ 0 means unlimited.
	MaxInFlight int
	// RetryAfter is the hint advertised on 503 responses. 0 = 1 s.
	RetryAfter time.Duration
	// StoreDelay adds synthetic latency to every store read that misses
	// the response cache. It models a remote or disk-backed SAS store for
	// load tests (the in-memory store is otherwise too fast to expose
	// coalescing and admission behavior). 0 = none.
	StoreDelay time.Duration
}

// DefaultServiceOptions enables a 64 MiB response cache, no admission cap,
// and the 1 s Retry-After hint.
func DefaultServiceOptions() ServiceOptions {
	return ServiceOptions{RespCacheBytes: 64 << 20, RetryAfter: time.Second}
}

// RespCacheStats is a point-in-time view of the response cache.
type RespCacheStats = cache.Stats

// respCache is the shard's instance of the cache core (internal/cache): the
// 200 Answer of each encoded payload — an immutable byte slice served to
// many requests concurrently, with its Content-Length formatted once —
// budgeted by payload bytes, not entry count, because FOV metadata is ~KBs
// while segments are ~MBs. A payload missing from the store
// is reported as errNotStored: shared with the concurrent requests that
// asked for it, never cached, so a later request retries.
type respCache = cache.Cache[Ref, Answer]

var errNotStored = errors.New("server: payload not in the store")

// Prometheus metric names for the response cache (the core appends the
// per-series suffixes) and admission control.
const (
	promRespCache  = "evr_respcache"
	promThrottled  = "evr_http_throttled_total"
	promTooEarly   = "evr_http_too_early_total"
	promLiveBehind = "evr_live_behind_seconds"
)

// newRespCache builds a cache with the given payload-byte budget, hanging
// its counters on the service's telemetry registry. maxBytes ≤ 0 returns
// the nil cache: every request then reads the store on its own.
func newRespCache(maxBytes int64, reg *telemetry.Registry) *respCache {
	if maxBytes <= 0 {
		return nil
	}
	return cache.New[Ref](maxBytes, func(a Answer) int64 { return int64(len(a.Body)) }, reg, promRespCache, cache.Help{
		Hits:      "segment responses served from the response cache",
		Misses:    "segment responses loaded from the store",
		Coalesced: "segment requests that joined an in-flight identical load",
		Evictions: "response-cache entries evicted under the byte budget",
		Oversized: "payloads larger than the whole cache budget (served, never cached)",
		Doomed:    "in-flight loads overtaken by a purge (served, never cached)",
		Purged:    "response-cache entries dropped by re-ingest and live-publish purges",
		Entries:   "live response-cache entries",
		Bytes:     "live response-cache payload bytes",
	})
}
