package client

import (
	"sync/atomic"

	"evr/internal/cache"
	"evr/internal/frame"
	"evr/internal/server"
)

// segmentKey identifies one decoded segment payload in the cache: a FOV
// video (cluster ≥ 0), an original segment (cluster = origCluster), one
// tile stream (cluster = tileCluster, tile/rung set), or the low-res
// backfill stream (cluster = lowCluster).
type segmentKey struct {
	video   string
	seg     int
	cluster int
	tile    int
	rung    int
}

// Cluster pseudo-IDs for the non-FOV payload kinds sharing the cache.
const (
	origCluster = -1
	tileCluster = -2
	lowCluster  = -3
)

// segmentEntry is one decoded segment, shared by every request the cache
// hands it to: the frames ready for display plus, for FOV videos, their
// per-frame orientation metadata.
type segmentEntry struct {
	frames []*frame.Frame
	meta   []server.FrameMeta
	// prefetched is set on entries the background prefetcher loaded and
	// cleared by the first demand request that receives the entry, so each
	// prefetch counts as at most one PrefetchHit.
	prefetched atomic.Bool
}

// segmentCache is the client's instance of the cache core (internal/cache).
// Holding *decoded* frames (not wire payloads) means a cache hit skips both
// the network round trip and the P-frame chain decode — the two costs the
// paper's §5.4 fallback path pays mid-render. Every entry weighs 1, so the
// budget is counted in segments: eviction granularity is a whole segment
// anyway (partial segments are undecodable mid-chain).
type segmentCache = cache.Cache[segmentKey, *segmentEntry]

// newSegmentCache returns a cache holding up to capacity segments.
// capacity ≤ 0 retains nothing; concurrent identical loads still coalesce.
func newSegmentCache(capacity int) *segmentCache {
	return cache.New[segmentKey](int64(capacity), func(*segmentEntry) int64 { return 1 }, nil, "", cache.Help{})
}
