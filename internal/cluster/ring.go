// Package cluster is the horizontal serving tier: a consistent-hash
// router that fronts N in-process server.Service replicas sharing one SAS
// store, with an edge-cache tier — a second-level, bytes-budgeted response
// cache in the router that absorbs Zipf-popular segments before they hit a
// shard.
//
// Requests for a (video, segment) pair always land on the same shard
// (virtual-node consistent hashing), so each shard's response cache holds
// a disjoint slice of the corpus instead of N copies of the hottest one —
// the cache-affinity property that makes the tier's aggregate cache
// capacity scale with the shard count. Killing a shard rebuilds the ring:
// only the keys it owned move (to their ring successors, which serve them
// from the shared store), and the edge entries whose ownership changed are
// purged. The golden-playback and conformance gates hold byte-identical
// through the routed path because shards serve the same store bytes the
// single-server path does.
//
// Routing: the router's Handler is server.Front over its own ServeMux, as a
// shard's is. A canonical payload request is parsed once at the router and
// goes straight to the edge cache; on a miss it is forwarded in-process to
// the owning shard's handler, which parses it once more, its own tier's one
// parse. An edge hit replays header values the edge entry holds, so it
// allocates nothing.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is an immutable consistent-hash ring over the live shards. Each
// shard contributes vnodes virtual points so load splits evenly even with
// a handful of shards; a key is owned by the first point clockwise from
// its hash. Topology changes build a new ring rather than mutating —
// readers hold a snapshot and never lock.
type ring struct {
	points []ringPoint // sorted by hash
	vnodes int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// defaultVirtualNodes spreads each shard over 64 ring points — enough to
// hold the max/mean key imbalance under ~1.35 for small clusters without
// making ring builds noticeable.
const defaultVirtualNodes = 64

// buildRing constructs the ring over the given live shard indices. An
// empty shard list yields an empty ring (lookups return -1 — the cluster
// is fully down).
func buildRing(shards []int, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	r := &ring{points: make([]ringPoint, 0, len(shards)*vnodes), vnodes: vnodes}
	for _, s := range shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s, v), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// mix64 is a full-avalanche 64-bit finalizer (the murmur3 fmix64
// constants). FNV-1a alone leaves the hashes of near-identical short
// strings — exactly what vnode identities and segment keys are —
// correlated in the high bits, which clusters ring points and skews the
// load split badly; one finalizer pass restores a uniform spread.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// pointHash positions one virtual node. The identity is the (shard, vnode)
// pair, so a shard's points land on identical positions across rebuilds —
// the property that makes removal move only the removed shard's keys.
func pointHash(shard, vnode int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "shard-%d#%d", shard, vnode)
	return mix64(h.Sum64())
}

// keyHash hashes a routing key. Segment keys are "video/seg", so every
// payload kind of one (video, segment) — orig, FOV video, FOV metadata —
// shares a shard and its response cache locality.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	return mix64(h.Sum64())
}

// segKey is the ring key of one (video, segment) pair.
func segKey(video string, seg int) string { return video + "/" + strconv.Itoa(seg) }

// lookup returns the shard owning key, or -1 on an empty ring.
func (r *ring) lookup(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point is the successor of the top of the ring
	}
	return r.points[i].shard
}

// owner returns the shard owning a (video, segment) pair.
func (r *ring) owner(video string, seg int) int { return r.lookup(segKey(video, seg)) }

// ownerSkipping returns the first shard clockwise from key's hash for which
// skip is false — the ring-successor walk the router uses when the owner
// died after this ring was built but before its rebuild landed. Returns -1
// when the ring is empty or every shard on it is skipped.
func (r *ring) ownerSkipping(key string, skip func(shard int) bool) int {
	if len(r.points) == 0 {
		return -1
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	tried := map[int]bool{}
	for n := 0; n < len(r.points); n++ {
		s := r.points[(start+n)%len(r.points)].shard
		if tried[s] {
			continue
		}
		if !skip(s) {
			return s
		}
		tried[s] = true
	}
	return -1
}

// shards returns the distinct live shard indices on the ring, sorted.
func (r *ring) shards() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range r.points {
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	sort.Ints(out)
	return out
}
