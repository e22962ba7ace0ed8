package ptlut

import (
	"time"

	"evr/internal/cache"
	"evr/internal/telemetry"
)

// Prometheus metric names for the mapping-LUT cache: the cache core's
// series under promCache (evr_ptlut_hits_total …) plus the build timer.
const (
	promCache     = "evr_ptlut"
	promBuildSecs = "evr_ptlut_build_seconds"
)

// DefaultCacheBytes is the default table budget: enough for a few 1080p
// bilinear tables (~66 MB each) or hundreds of ingest-scale ones.
const DefaultCacheBytes = 256 << 20

// CacheStats is a point-in-time view of a mapping-LUT cache. Nothing purges
// a table cache (a table is a pure function of its key), so Doomed and
// Purged stay zero.
type CacheStats = cache.Stats

// Cache is the mapping-table instance of the cache core (internal/cache):
// tables are immutable and served to many concurrent renders, concurrent
// identical builds coalesce, and eviction is size-based because a 1080p
// bilinear table outweighs an ingest-scale one by ~3 orders of magnitude.
// Safe for concurrent use. The nil *Cache is valid and caches nothing —
// every Get builds.
type Cache struct {
	lru       *cache.Cache[Key, *Table]
	buildSecs *telemetry.Histogram
}

// NewCache builds a table cache with the given byte budget (<= 0 uses
// DefaultCacheBytes), hanging its metrics on reg (nil = no telemetry).
func NewCache(maxBytes int64, reg *telemetry.Registry) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	reg.SetHelp(promBuildSecs, "mapping-table build wall time in seconds")
	return &Cache{
		lru: cache.New[Key](maxBytes, (*Table).Bytes, reg, promCache, cache.Help{
			Hits:      "renders served from a resident mapping table",
			Misses:    "mapping-table builds",
			Coalesced: "renders that joined an in-flight table build",
			Evictions: "mapping tables evicted under the byte budget",
			Oversized: "mapping tables larger than the whole budget (never cached)",
			Entries:   "resident mapping tables",
			Bytes:     "resident mapping-table bytes",
		}),
		buildSecs: reg.Histogram(promBuildSecs, telemetry.DefaultStageBuckets()),
	}
}

// Get returns the table for key, building it at most once per concurrent
// wave: the first miss runs build, concurrent identical requests wait on
// that flight, and the finished table is inserted under the LRU byte
// budget. A nil cache (or a failed build) falls through to the caller:
// build errors are returned, never cached.
func (c *Cache) Get(key Key, build func() (*Table, error)) (*Table, error) {
	if c == nil {
		return build()
	}
	tbl, _, err := c.lru.Get(key, func() (*Table, error) {
		t0 := time.Now()
		tbl, err := build()
		c.buildSecs.ObserveDuration(time.Since(t0))
		return tbl, err
	})
	return tbl, err
}

// Stats snapshots the cache counters. The nil cache reports zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return c.lru.Stats()
}
