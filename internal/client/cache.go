package client

import (
	"sync/atomic"

	"evr/internal/cache"
	"evr/internal/frame"
	"evr/internal/server"
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

// segmentCache is the client's instance of the cache core (internal/cache),
// keyed by the payload address — a FOV entry holds the FOV video and its
// metadata, so no entry is ever keyed FOVMeta.
// Holding *decoded* frames (not wire payloads) means a cache hit skips both
// the network round trip and the P-frame chain decode — the two costs the
// paper's §5.4 fallback path pays mid-render. Every entry weighs 1, so the
// budget is counted in segments: eviction granularity is a whole segment
// anyway (partial segments are undecodable mid-chain).
type segmentCache = cache.Cache[server.Ref, *segmentEntry]

// newSegmentCache returns a cache holding up to capacity segments.
// capacity ≤ 0 retains nothing; concurrent identical loads still coalesce.
func newSegmentCache(capacity int) *segmentCache {
	return cache.New[server.Ref](int64(capacity), func(*segmentEntry) int64 { return 1 }, nil, "", cache.Help{})
}
