package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
	"evr/internal/telemetry"
)

// Options configures a cluster.
type Options struct {
	// Shards is the tier's topology: 0 = one server.Service, no router and
	// no edge tier (Handler is that service's own); N ≥ 1 = N replicas
	// behind the consistent-hash router.
	Shards int
	// VirtualNodes is the ring points per shard (≤ 0 = 64). More points
	// flatten load skew at a small ring-build cost.
	VirtualNodes int
	// EdgeCacheBytes bounds the router's edge cache of routed payloads.
	// 0 picks the 32 MiB default; negative disables the edge tier.
	EdgeCacheBytes int64
	// Shard is the serving configuration applied to every replica
	// (response cache budget, admission control, synthetic store delay).
	Shard server.ServiceOptions
}

// DefaultOptions returns a 2-shard cluster with a 32 MiB edge cache and
// the default per-shard serving options.
func DefaultOptions() Options {
	return Options{
		Shards:         2,
		VirtualNodes:   defaultVirtualNodes,
		EdgeCacheBytes: 32 << 20,
		Shard:          server.DefaultServiceOptions(),
	}
}

// Prometheus metric names for the router.
const (
	promRouterRequests      = "evr_router_requests_total"
	promRouterRerouted      = "evr_router_rerouted_total"
	promRouterShedForwarded = "evr_router_shed_forwarded_total"
	promRouterNoShard       = "evr_router_no_shard_total"
	promRouterLiveShards    = "evr_router_live_shards"
	promRouterShardRequests = "evr_router_shard_requests_total"
)

// shard is one serving replica behind the router.
type shard struct {
	name     string
	svc      *server.Service
	handler  http.Handler                   // catalog and manifests (proxyAny)
	answer   func(server.Ref) server.Answer // payloads: svc.Answer, a test seam
	down     atomic.Bool
	requests *telemetry.Counter // evr_router_shard_requests_total{shard=...}
	shed     *telemetry.Counter // 503s this shard answered through the router
}

// Cluster is the serving tier: N server.Service replicas over one shared
// SAS store, fronted by a consistent-hash router with an edge cache — or,
// with Shards 0, one Service on its own. All replicas serve identical bytes
// (same store, same manifests), so routing is purely a cache-affinity and
// load-spreading decision — and playback through the router is
// byte-identical to a single server.
type Cluster struct {
	opts   Options
	store  *store.Store
	reg    *telemetry.Registry
	edge   *edgeCache // nil (caches nothing) when the edge tier is disabled
	shards []*shard

	requests      *telemetry.Counter
	rerouted      *telemetry.Counter
	shedForwarded *telemetry.Counter
	noShard       *telemetry.Counter
	liveShardsG   *telemetry.Gauge

	rrNext atomic.Uint64 // round-robin cursor for unkeyed endpoints

	// topoMu serializes topology changes (kill, restart); ringMu guards the
	// ring snapshot readers take per request.
	topoMu sync.Mutex
	ringMu sync.RWMutex
	ring   *ring
}

// New builds a tier of opts.Shards replicas over st (nil = a fresh store);
// Shards 0 builds one replica and no edge tier. The shards come up live
// with an empty catalog; Ingest or Publish populates them.
func New(st *store.Store, opts Options) (*Cluster, error) {
	if opts.Shards < 0 {
		return nil, fmt.Errorf("cluster: Shards %d must be ≥ 0", opts.Shards)
	}
	if opts.VirtualNodes <= 0 {
		opts.VirtualNodes = defaultVirtualNodes
	}
	switch {
	case opts.Shards == 0:
		opts.EdgeCacheBytes = -1 // no router, so nothing to cache in front of it
	case opts.EdgeCacheBytes == 0:
		opts.EdgeCacheBytes = 32 << 20
	}
	replicas := max(opts.Shards, 1)
	if st == nil {
		st = store.New()
	}
	reg := telemetry.NewRegistry()
	reg.SetHelp(promRouterRequests, "requests the router accepted")
	reg.SetHelp(promRouterRerouted, "requests re-routed past a dead shard")
	reg.SetHelp(promRouterShedForwarded, "shard 503 shed signals forwarded to clients")
	reg.SetHelp(promRouterNoShard, "requests failed because no shard was live")
	reg.SetHelp(promRouterLiveShards, "shards currently on the ring")
	reg.SetHelp(promRouterShardRequests, "requests the router forwarded, per shard")
	c := &Cluster{
		opts:          opts,
		store:         st,
		reg:           reg,
		edge:          newEdgeCache(opts.EdgeCacheBytes, reg),
		requests:      reg.Counter(promRouterRequests),
		rerouted:      reg.Counter(promRouterRerouted),
		shedForwarded: reg.Counter(promRouterShedForwarded),
		noShard:       reg.Counter(promRouterNoShard),
		liveShardsG:   reg.Gauge(promRouterLiveShards),
	}
	alive := make([]int, replicas)
	for i := 0; i < replicas; i++ {
		name := fmt.Sprintf("shard-%d", i)
		svc := server.NewServiceOpts(st, opts.Shard)
		c.shards = append(c.shards, &shard{
			name:     name,
			svc:      svc,
			handler:  svc.Handler(),
			answer:   svc.Answer,
			requests: reg.Counter(promRouterShardRequests, telemetry.L("shard", name)),
			shed:     reg.Counter("evr_router_shard_shed_total", telemetry.L("shard", name)),
		})
		alive[i] = i
	}
	c.ring = buildRing(alive, opts.VirtualNodes)
	c.liveShardsG.Set(int64(replicas))
	return c, nil
}

// Store exposes the shared SAS store.
func (c *Cluster) Store() *store.Store { return c.store }

// Shard returns one replica's service — tests and reports read per-shard
// cache and admission counters through it.
func (c *Cluster) Shard(i int) *server.Service { return c.shards[i].svc }

// Ingest runs the ingest pipeline once — through shard 0's service, into
// the shared store — and publishes the manifest to every other replica.
// The edge tier purges the video so a re-ingest is immediately visible
// through the router, exactly as each shard's response cache is.
func (c *Cluster) Ingest(v scene.VideoSpec, cfg server.IngestConfig) (*server.Manifest, error) {
	man, err := c.shards[0].svc.IngestVideo(v, cfg)
	if err != nil {
		return nil, err
	}
	for _, sh := range c.shards[1:] {
		sh.svc.Publish(man)
	}
	c.edge.PurgeKeys(server.OfVideo(v.Name))
	return man, nil
}

// Publish registers an already-ingested manifest (payloads present in the
// shared store — e.g. a loaded snapshot) with every replica and purges the
// edge tier.
func (c *Cluster) Publish(man *server.Manifest) {
	for _, sh := range c.shards {
		sh.svc.Publish(man)
	}
	c.edge.PurgeKeys(server.OfVideo(man.Video))
}

// ServeLive attaches a live stream to every replica: each shard serves the
// stream's moving manifest and gates segment requests on its live edge, and
// every publish purges the segment from each shard's response cache and
// from the edge tier — so the 425-to-payload transition is immediately
// visible through the router. Call before Start so no publish races the
// registration.
func (c *Cluster) ServeLive(ls *server.LiveStream) {
	for _, sh := range c.shards {
		sh.svc.ServeLive(ls)
	}
	video := ls.Video()
	ls.OnPublish(func(seg int) { c.edge.PurgeKeys(server.OfSegment(video, seg)) })
}

// checkShard refuses a topology change of shard i: one out of range, or
// any shard of an unrouted tier (nothing would re-route its requests).
func (c *Cluster) checkShard(i int) error {
	if c.opts.Shards == 0 {
		return fmt.Errorf("cluster: shard %d: a Shards-0 tier has no router to take it off", i)
	}
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("cluster: shard %d out of range [0,%d)", i, len(c.shards))
	}
	return nil
}

// KillShard takes one replica off the ring: its keys move to their ring
// successors (which serve them from the shared store), edge entries it
// served are purged, and requests already routed to it re-route. Killing
// an already-dead shard is a no-op; killing the last live shard is allowed
// — the router then sheds everything with 503 until a restart.
func (c *Cluster) KillShard(i int) error {
	if err := c.checkShard(i); err != nil {
		return err
	}
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if c.shards[i].down.Swap(true) {
		return nil
	}
	c.rebuildRingLocked()
	return nil
}

// RestartShard brings a killed replica back: it rejoins the ring and
// reclaims its keys, and the edge entries its stand-ins served for those
// keys are purged. Its response cache restarts cold — a restarted process
// would too.
func (c *Cluster) RestartShard(i int) error {
	if err := c.checkShard(i); err != nil {
		return err
	}
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if !c.shards[i].down.Swap(false) {
		return nil
	}
	c.rebuildRingLocked()
	return nil
}

// rebuildRingLocked recomputes the ring from the live set and runs the
// targeted edge purge. Caller holds topoMu.
func (c *Cluster) rebuildRingLocked() {
	var alive []int
	for i, sh := range c.shards {
		if !sh.down.Load() {
			alive = append(alive, i)
		}
	}
	next := buildRing(alive, c.opts.VirtualNodes)
	c.ringMu.Lock()
	c.ring = next
	c.ringMu.Unlock()
	c.liveShardsG.Set(int64(len(alive)))
	purgeMoved(c.edge, next.owner)
}

// currentRing snapshots the ring.
func (c *Cluster) currentRing() *ring {
	c.ringMu.RLock()
	defer c.ringMu.RUnlock()
	return c.ring
}

// RouterStats is a point-in-time view of the router.
type RouterStats struct {
	Requests      int64 `json:"requests"`
	Rerouted      int64 `json:"rerouted"`
	ShedForwarded int64 `json:"shedForwarded"`
	NoShard       int64 `json:"noShard"`
	LiveShards    int   `json:"liveShards"`
}

// ShardStats is one replica's view through the router.
type ShardStats struct {
	Name      string                 `json:"name"`
	Alive     bool                   `json:"alive"`
	Requests  int64                  `json:"requests"` // routed to this shard
	Shed      int64                  `json:"shed"`     // 503s it answered through the router
	Throttled int64                  `json:"throttled"`
	RespCache *server.RespCacheStats `json:"respCache,omitempty"`
}

// Stats is the full tier snapshot: router counters and the edge tier (nil
// when the tier has none), and every shard.
type Stats struct {
	Router *RouterStats `json:"router,omitempty"`
	Edge   *EdgeStats   `json:"edge,omitempty"`
	Shards []ShardStats `json:"shards"`
}

// Stats snapshots the tier.
func (c *Cluster) Stats() Stats {
	var st Stats
	if c.opts.Shards > 0 {
		st.Router = &RouterStats{
			Requests:      c.requests.Value(),
			Rerouted:      c.rerouted.Value(),
			ShedForwarded: c.shedForwarded.Value(),
			NoShard:       c.noShard.Value(),
			LiveShards:    len(c.currentRing().shards()),
		}
	}
	if c.edge != nil {
		es := c.edge.Stats()
		st.Edge = &es
	}
	for _, sh := range c.shards {
		ss := ShardStats{
			Name:      sh.name,
			Alive:     !sh.down.Load(),
			Requests:  sh.requests.Value(),
			Shed:      sh.shed.Value(),
			Throttled: sh.svc.Throttled(),
		}
		if rc, ok := sh.svc.RespCacheStats(); ok {
			ss.RespCache = &rc
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}
