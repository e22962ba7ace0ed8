package client

import (
	"sync/atomic"

	"evr/internal/cache"
	"evr/internal/codec"
	"evr/internal/server"
)

// segmentEntry is one fetched segment, shared by every request the cache
// hands it to: the encoded stream, header-checked but not decoded, plus, for
// FOV videos, the per-frame orientation metadata. Entries are read-only; each
// player decodes the frames it displays with decoders of its own.
type segmentEntry struct {
	bits *codec.Bitstream
	meta []server.FrameMeta
	// prefetched is set on entries the background prefetcher loaded and
	// cleared by the first demand request that receives the entry, so each
	// prefetch counts as at most one PrefetchHit.
	prefetched atomic.Bool
}

// segmentCache is the client's instance of the cache core (internal/cache),
// keyed by the payload address — a FOV entry holds the FOV video and its
// metadata, so no entry is ever keyed FOVMeta.
// Holding *encoded* segments means a cache hit saves the network round trip,
// not the decode: frames are decoded when they are displayed, so a FOV
// segment abandoned at its first miss, or an original no frame needed, is
// never decoded at all. Every entry weighs 1, so the budget is counted in
// segments: eviction granularity is a whole segment anyway (partial segments
// are undecodable mid-chain).
type segmentCache = cache.Cache[server.Ref, *segmentEntry]

// newSegmentCache returns a cache holding up to capacity segments.
// capacity ≤ 0 retains nothing; concurrent identical loads still coalesce.
func newSegmentCache(capacity int) *segmentCache {
	return cache.New[server.Ref](int64(capacity), func(*segmentEntry) int64 { return 1 }, nil, "", cache.Help{})
}
