// Command evrserver runs the EVR cloud component: it ingests synthetic 360°
// videos through the full pixel pipeline (render → detect → track → cluster
// → pre-render FOV videos → encode → SAS store) and serves them over HTTP.
//
// Usage:
//
//	evrserver [-addr :8090] [-videos RS,Timelapse] [-segments 4] [-width 192]
//	          [-tiled] [-respcache 64] [-max-inflight 0] [-retry-after 1s]
//	          [-pprof localhost:6060]
//	          [-shards 3] [-edge-cache 32] [-vnodes 64]
//
// -shards picks the serving tier (internal/cluster): 0 = one server, no
// router; N ≥ 1 = N shard replicas over one store behind a consistent-hash
// router with an edge cache. The HTTP surface is unchanged — clients can't
// tell a cluster from a single server.
//
// Endpoints: /videos, /v/{video}/manifest, one route per payload kind
// (DESIGN.md §10 "Payload address"; the tile routes answer only with -tiled),
// and /metrics (JSON; ?format=prom for Prometheus text exposition). -pprof
// serves net/http/pprof profiles on a separate listener.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served via -pprof
	"os"
	"strings"
	"time"

	"evr/internal/cluster"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	videos := flag.String("videos", "RS", "comma-separated catalog videos to ingest")
	segments := flag.Int("segments", 4, "temporal segments to ingest per video (0 = all)")
	live := flag.Bool("live", false, "live-streaming mode: no ingest analysis, no FOV videos (§8.3)")
	tiled := flag.Bool("tiled", false, "also ingest per-tile streams and a low-res backfill so clients can use viewport-adaptive tiled delivery")
	width := flag.Int("width", 192, "panoramic ingest width (height = width/2)")
	snapshot := flag.String("snapshot", "", "persist the SAS store to this file (loaded on start, saved after ingest)")
	respcache := flag.Int64("respcache", server.DefaultServiceOptions().RespCacheBytes>>20, "response cache budget in MiB (0 = off)")
	maxInflight := flag.Int("max-inflight", 0, "admission limit on concurrent segment requests (0 = unlimited)")
	retryAfter := flag.Duration("retry-after", server.DefaultServiceOptions().RetryAfter, "Retry-After hint on shed (503) responses")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	shards := flag.Int("shards", 0, "serving tier: 0 = one server, no router; N ≥ 1 = N shards behind the consistent-hash router")
	edgeCache := flag.Int64("edge-cache", 32, "router edge-cache budget in MiB with -shards (≤ 0 = off)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the ring (0 = default)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			log.Printf("pprof server exited: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	cfg := server.DefaultIngestConfig()
	cfg.FullW = *width - *width%8
	cfg.FullH = cfg.FullW / 2
	cfg.MaxSegments = *segments
	cfg.LiveMode = *live
	cfg.Tiled = *tiled

	st := store.New()
	if *snapshot != "" {
		if f, err := os.Open(*snapshot); err == nil {
			if _, err := st.ReadFrom(f); err != nil {
				log.Fatalf("loading snapshot: %v", err)
			}
			f.Close()
			log.Printf("loaded store snapshot %s (%s)", *snapshot, byteSize(st.DataBytes()))
		}
	}
	opts := server.DefaultServiceOptions()
	opts.RespCacheBytes = *respcache << 20
	opts.MaxInFlight = *maxInflight
	opts.RetryAfter = *retryAfter

	// -shards only swaps what sits behind the one ingest and HTTP surface.
	copts := cluster.Options{Shards: *shards, VirtualNodes: *vnodes, EdgeCacheBytes: -1, Shard: opts}
	if *edgeCache > 0 {
		copts.EdgeCacheBytes = *edgeCache << 20
	}
	tier, err := cluster.New(st, copts)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving tier: %d shards (0 = one server, no router), %d virtual nodes, edge cache %d MiB", *shards, *vnodes, *edgeCache)

	for _, name := range strings.Split(*videos, ",") {
		name = strings.TrimSpace(name)
		v, ok := scene.ByName(name)
		if !ok {
			log.Fatalf("unknown video %q (catalog: Elephant, Paris, RS, NYC, Rhino, Timelapse)", name)
		}
		start := time.Now()
		man, err := tier.Ingest(v, cfg)
		if err != nil {
			log.Fatalf("ingesting %s: %v", name, err)
		}
		var fovVideos int
		for _, s := range man.Segments {
			fovVideos += len(s.Clusters)
		}
		log.Printf("ingested %s: %d segments, %d FOV videos, %s store, %v",
			name, len(man.Segments), fovVideos, byteSize(st.DataBytes()), time.Since(start).Round(time.Millisecond))
	}
	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err != nil {
			log.Fatalf("creating snapshot: %v", err)
		}
		if _, err := st.WriteTo(f); err != nil {
			log.Fatalf("writing snapshot: %v", err)
		}
		f.Close()
		log.Printf("saved store snapshot %s", *snapshot)
	}
	log.Printf("EVR server listening on %s", *addr)
	log.Fatal(http.ListenAndServe(*addr, tier.Handler()))
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
