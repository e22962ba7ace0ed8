package cluster

import (
	"errors"
	"net/http"

	"evr/internal/cache"
	"evr/internal/server"
	"evr/internal/telemetry"
)

// edgeResp is one upstream response held by the edge tier: enough of the
// HTTP surface to replay it byte-identically — status, the content type,
// the Retry-After shed hint, the live publish timestamp, and the body —
// plus the shard that served it, the ownership record targeted purges match
// against. publishedAt is safe to cache: a segment's timestamp is immutable
// per publish, and every publish purges its edge entries first. The header
// values are kept as the one-element slices writeResp assigns (nil = not
// set), so a replay allocates nothing.
type edgeResp struct {
	status      int
	contentType []string
	retryAfter  []string
	publishedAt []string // X-EVR-Published-At-Ns, nil for VOD payloads
	body        []byte
	owner       int // shard index, -1 when no shard answered
}

// cacheable reports whether the response may enter the edge cache: only
// successful payloads from a live shard. Shed signals (503 + Retry-After),
// 404s, and errors pass through uncached so a recovered shard is visible
// immediately.
func (r *edgeResp) cacheable() bool { return r.status == http.StatusOK && r.owner >= 0 }

// errPassThrough rides beside an uncacheable response through the cache
// core: the response is handed to the requests waiting on it, never retained.
var errPassThrough = errors.New("cluster: response not cacheable")

// EdgeStats is a point-in-time view of the edge cache.
type EdgeStats = cache.Stats

// promEdge prefixes the edge tier's Prometheus series (evr_edge_hits_total
// …); the core appends the per-series suffixes.
const promEdge = "evr_edge"

// edgeCache is the router's second-level response cache, the cache core
// (internal/cache) keyed on the payload address and holding full response
// envelopes. It is what absorbs the head of a Zipf popularity distribution
// before it reaches any shard.
type edgeCache = cache.Cache[server.Ref, *edgeResp]

// newEdgeCache builds an edge cache with the given payload-byte budget,
// registering its series on the router's registry. maxBytes ≤ 0 returns
// the nil cache — the router then forwards every request.
func newEdgeCache(maxBytes int64, reg *telemetry.Registry) *edgeCache {
	if maxBytes <= 0 {
		return nil
	}
	return cache.New[server.Ref](maxBytes, func(r *edgeResp) int64 { return int64(len(r.body)) }, reg, promEdge, cache.Help{
		Hits:      "segment responses served from the edge cache",
		Misses:    "segment responses routed to a shard",
		Coalesced: "segment requests that joined an in-flight identical routed load",
		Evictions: "edge-cache entries evicted under the byte budget",
		Oversized: "payloads larger than the whole edge budget (served, never cached)",
		Doomed:    "in-flight routed loads overtaken by a purge or topology change",
		Purged:    "edge-cache entries dropped by video purges and topology changes",
		Entries:   "live edge-cache entries",
		Bytes:     "live edge-cache payload bytes",
	})
}

// purgeMoved enforces the edge ownership invariant after a topology
// change: every resident entry must have been served by the shard that
// currently owns its key. Entries whose ownership moved (a killed shard's
// keys now belong to its ring successors; a restarted shard reclaims keys
// its stand-ins served) are dropped, and every in-flight load is doomed —
// its recorded owner may be stale by the time it lands.
func purgeMoved(c *edgeCache, owner func(video string, seg int) int) {
	c.Purge(
		func(k server.Ref, r *edgeResp) bool { return owner(k.Video, k.Seg) != r.owner },
		func(server.Ref) bool { return true },
	)
}
