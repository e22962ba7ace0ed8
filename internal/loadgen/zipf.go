package loadgen

import (
	"math"

	"evr/internal/cluster"
	"evr/internal/scene"
	"evr/internal/telemetry"
)

// zipfAssign returns the catalog index user u plays under a Zipf(s)
// popularity law over n videos, rank = index (catalog[0] is the most
// popular). The draw is a hash of the user index mapped through the Zipf
// CDF — fully deterministic, so every pass (and every re-run) assigns the
// same user the same video, which keeps the soak's pass-to-pass checksum
// assertion meaningful in Zipf mode.
func zipfAssign(user, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// splitmix64 of the user index → uniform in [0, 1).
	x := uint64(user) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u01 := float64(x>>11) / float64(1<<53)

	var total float64
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	var cum float64
	for i, w := range weights {
		cum += w / total
		if u01 < cum {
			return i
		}
	}
	return n - 1
}

// ZipfClasses is the Zipf-popular population over a multi-video catalog —
// the skewed request mix the edge cache exists to absorb: one copy of
// template per video of specs (rank = index: specs[0] is the most popular),
// named after the video and holding as many of users 0..users-1 as
// zipfAssign sends there. Videos that draw no user get no class.
func ZipfClasses(specs []scene.VideoSpec, users int, s float64, template ClassSpec) []ClassSpec {
	counts := make([]int, len(specs))
	for u := 0; u < users; u++ {
		counts[zipfAssign(u, len(specs), s)]++
	}
	var out []ClassSpec
	for i, spec := range specs {
		if counts[i] == 0 {
			continue
		}
		cs := template
		cs.Name, cs.Users, cs.Video, cs.Spec = spec.Name, counts[i], spec.Name, spec
		out = append(out, cs)
	}
	return out
}

// ShardDelta is one shard's routed-request change over one pass.
type ShardDelta struct {
	Name     string
	Alive    bool // at pass end
	Requests int64
	Shed     int64
}

// ClusterDelta is the change in an in-process serving tier's counters over
// one pass.
type ClusterDelta struct {
	// Summed over every shard: response-cache lookups and admission sheds.
	CacheHits      int64
	CacheMisses    int64
	CacheCoalesced int64
	Throttled      int64
	// The router's block; all zero, and Shards nil, for a tier without a
	// router (Shards 0).
	Rerouted      int64
	NoShard       int64
	EdgeHits      int64
	EdgeMisses    int64
	EdgeCoalesced int64
	Shards        []ShardDelta
}

// EdgeHitRate returns the pass's edge hit fraction over all edge lookups.
func (d *ClusterDelta) EdgeHitRate() float64 {
	return cluster.EdgeStats{Hits: d.EdgeHits, Misses: d.EdgeMisses, Coalesced: d.EdgeCoalesced}.HitRate()
}

// Skew returns the pass's per-shard load skew: the max routed-request
// share over the mean across shards that served anything or are alive.
// 1.0 is a perfect split; the consistent-hash ring should keep this near
// the vnode balance bound.
func (d *ClusterDelta) Skew() float64 {
	var total, max int64
	n := 0
	for _, sh := range d.Shards {
		if !sh.Alive && sh.Requests == 0 {
			continue // dead the whole pass: not part of the split
		}
		n++
		total += sh.Requests
		if sh.Requests > max {
			max = sh.Requests
		}
	}
	if n == 0 || total == 0 {
		return 0
	}
	return float64(max) / (float64(total) / float64(n))
}

// clusterDelta diffs two snapshots of one tier into a pass delta.
func clusterDelta(before, after cluster.Stats) *ClusterDelta {
	d := &ClusterDelta{}
	for i, sh := range after.Shards {
		b := before.Shards[i]
		d.Throttled += sh.Throttled - b.Throttled
		if sh.RespCache != nil && b.RespCache != nil {
			d.CacheHits += sh.RespCache.Hits - b.RespCache.Hits
			d.CacheMisses += sh.RespCache.Misses - b.RespCache.Misses
			d.CacheCoalesced += sh.RespCache.Coalesced - b.RespCache.Coalesced
		}
	}
	if after.Router == nil {
		return d
	}
	d.Rerouted = after.Router.Rerouted - before.Router.Rerouted
	d.NoShard = after.Router.NoShard - before.Router.NoShard
	if before.Edge != nil && after.Edge != nil {
		d.EdgeHits = after.Edge.Hits - before.Edge.Hits
		d.EdgeMisses = after.Edge.Misses - before.Edge.Misses
		d.EdgeCoalesced = after.Edge.Coalesced - before.Edge.Coalesced
	}
	for i, sh := range after.Shards {
		d.Shards = append(d.Shards, ShardDelta{
			Name:     sh.Name,
			Alive:    sh.Alive,
			Requests: sh.Requests - before.Shards[i].Requests,
			Shed:     sh.Shed - before.Shards[i].Shed,
		})
	}
	return d
}

// deltaSnapshot subtracts two cumulative histogram snapshots taken from
// the same histogram, yielding the distribution of just the observations
// between them — the per-pass latency view.
func deltaSnapshot(before, after telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if len(before.Counts) != len(after.Counts) {
		return after
	}
	d := telemetry.HistogramSnapshot{
		Bounds: after.Bounds,
		Counts: make([]int64, len(after.Counts)),
		Sum:    after.Sum - before.Sum,
		// Quantile clamps to Max; the run-wide max is the tightest bound a
		// cumulative histogram can offer a slice of itself.
		Max: after.Max,
	}
	for i := range d.Counts {
		d.Counts[i] = after.Counts[i] - before.Counts[i]
		d.Count += d.Counts[i]
	}
	return d
}
