// Command evrload drives the EVR serving path with N concurrent synthetic
// users, each replaying their deterministic head trace through the real
// HTTP client fetch layer, and reports per-user FOV-hit rates, request
// latency p50/p95/p99, cache effectiveness on both sides of the wire, and
// aggregate throughput.
//
// With no -url it ingests the video and serves it in-process on a loopback
// listener — a self-contained load experiment — and can then also report
// the shards' response-cache and admission-control deltas per pass.
// Point -url at a running evrserver to drive a remote target instead.
//
// The flags describe one class of users (loadgen.ClassSpec): -users
// sessions of -video, or, with -zipf, the same profile split across the
// first -zipf-videos catalog entries by Zipf popularity (ZipfClasses).
// -mode is the class's delivery word: empty plays the classic FOV/orig
// player; auto, fov, tiled or orig ingests tile streams and runs the tiled
// pipeline, left to the per-segment policy or pinned to one mode; frontier
// sweeps orig, fov, tiled and auto and prints the policy-frontier table.
//
// Usage:
//
//	evrload [-url http://host:8090] [-video RS] [-users 32] [-passes 2]
//	        [-segments 4] [-width 192] [-viewport-scale 40]
//	        [-respcache 64] [-max-inflight 0] [-store-delay 0]
//	        [-har] [-resilient] [-timeout 10s] [-retries 3] [-cache 8]
//	        [-prefetch] [-per-user] [-mode auto|fov|tiled|orig|frontier]
//
// -shards picks the in-process tier (cluster.Options.Shards): 0 = one
// server, no router; N ≥ 1 = N shards behind the consistent-hash router
// with an edge cache, and the report adds per-shard load skew and edge hit
// rate per pass:
//
//	evrload -shards 3 [-edge-cache 32] [-vnodes 64]
//	        [-zipf 1.1 -zipf-videos 3]
//	        [-kill-shard 0 -kill-pass 2]
//	        [-verify-single]
//
// Chaos mode (-chaos <scenario>) ignores the flags above and instead runs
// a named builtin or JSON scenario file: a heterogeneous fleet (optionally
// with a live-ingested video) played against a deterministic seeded fault
// schedule, judged by the scenario's survival gates. -chaos-runs 2 re-runs
// the scenario on a fresh stack and additionally requires both runs to
// produce identical fault schedules and per-user frame checksums:
//
//	evrload -chaos ci-smoke [-chaos-runs 2]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"evr/internal/chaos"
	"evr/internal/client"
	"evr/internal/cluster"
	"evr/internal/loadgen"
	"evr/internal/scene"
	"evr/internal/server"
)

func main() {
	url := flag.String("url", "", "EVR server base URL (empty = ingest and serve in-process)")
	video := flag.String("video", "RS", "video name")
	users := flag.Int("users", 32, "concurrent sessions per pass")
	passes := flag.Int("passes", 2, "replays of the whole user set (pass 2+ hits the server cache)")
	segments := flag.Int("segments", 4, "segments to play per session (0 = all available)")
	width := flag.Int("width", 192, "panoramic ingest width for the in-process server (height = width/2)")
	viewportScale := flag.Int("viewport-scale", 0, "shrink rendered viewports by this linear factor (0 = player default)")
	respcache := flag.Int64("respcache", 64, "in-process server response cache budget in MiB (0 = off)")
	maxInflight := flag.Int("max-inflight", 0, "in-process server admission limit on concurrent segment requests (0 = off)")
	storeDelay := flag.Duration("store-delay", 0, "synthetic in-process store latency per cache miss")
	har := flag.Bool("har", true, "render FOV misses on the PTE accelerator")
	resilient := flag.Bool("resilient", false, "survive corrupt/missing payloads (degrade instead of abort)")
	timeout := flag.Duration("timeout", client.DefaultFetchConfig().Timeout, "per-request HTTP timeout (0 = none)")
	retries := flag.Int("retries", client.DefaultFetchConfig().MaxRetries, "retries per request on transient failures")
	cache := flag.Int("cache", client.DefaultFetchConfig().CacheSegments, "per-session segment LRU capacity (0 = off)")
	prefetch := flag.Bool("prefetch", true, "prefetch the next segment in the background")
	perUser := flag.Bool("per-user", false, "print one result row per session")
	mode := flag.String("mode", "", "delivery mode: auto lets the tiled pipeline's policy decide per segment, fov|tiled|orig pin it to one mode, frontier sweeps orig, fov, tiled and auto and prints the policy-frontier table (empty = classic FOV/orig player, no tile ingest)")
	shards := flag.Int("shards", 0, "in-process serving tier: 0 = one server, no router; N ≥ 1 = N shards behind the consistent-hash router")
	edgeCache := flag.Int64("edge-cache", 32, "cluster router edge-cache budget in MiB (≤ 0 = off)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the ring (0 = default)")
	zipf := flag.Float64("zipf", 0, "Zipf video-popularity exponent over the first -zipf-videos catalog entries (0 = single video)")
	zipfVideos := flag.Int("zipf-videos", 3, "catalog videos in the Zipf draw (most popular first)")
	killShard := flag.Int("kill-shard", -1, "kill this shard at the start of -kill-pass (needs -shards above it, no -url)")
	killPass := flag.Int("kill-pass", 2, "pass at whose start -kill-shard dies")
	verifySingle := flag.Bool("verify-single", false, "replay the cluster run against a single server and require identical per-user frame checksums")
	chaosName := flag.String("chaos", "", "run a chaos scenario (builtin name or JSON file) instead of the flag-driven load shape")
	chaosRuns := flag.Int("chaos-runs", 1, "repeat the chaos scenario on a fresh stack this many times and require identical schedules and checksums")
	flag.Parse()

	if *chaosName != "" {
		sc, err := chaos.Load(*chaosName)
		if err != nil {
			log.Fatalf("chaos: %v (builtins: %v)", err, chaos.BuiltinNames())
		}
		if !runChaos(sc, *chaosRuns, os.Stdout) {
			os.Exit(1)
		}
		return
	}

	v, ok := scene.ByName(*video)
	if !ok {
		log.Fatalf("unknown video %q (catalog: Elephant, Paris, RS, NYC, Rhino, Timelapse)", *video)
	}
	specs := []scene.VideoSpec{v}
	if *zipf > 0 {
		catalog := scene.Catalog()
		if *zipfVideos < 1 || *zipfVideos > len(catalog) {
			log.Fatalf("-zipf-videos %d out of range [1,%d]", *zipfVideos, len(catalog))
		}
		specs = catalog[:*zipfVideos]
	}

	// The flags describe one class of users, split across the Zipf
	// catalog when -zipf is set; frontier sets each sweep arm's delivery.
	const frontier = "frontier"
	class := loadgen.ClassSpec{Name: v.Name, Users: *users, Video: v.Name, UseHAR: *har}
	if *mode != frontier {
		class.Delivery = *mode
	}
	classes := []loadgen.ClassSpec{class}
	if *zipf > 0 {
		classes = loadgen.ZipfClasses(specs, *users, *zipf, class)
	}
	if _, err := loadgen.ValidateClasses(classes); err != nil {
		log.Fatal(err) // before any ingest: a bad -mode word fails fast
	}
	// So do flags the chosen target cannot honour.
	switch {
	case *killShard >= 0 && (*url != "" || *killShard >= *shards):
		log.Fatalf("-kill-shard %d needs an in-process routed tier with that shard (-shards > %d, no -url)", *killShard, *killShard)
	case *verifySingle && (*url != "" || *shards == 0):
		log.Fatal("-verify-single requires cluster mode (-shards N, no -url)")
	case *mode == frontier && (*url != "" || *shards > 0):
		log.Fatal("-mode=frontier needs the in-process single-server target (no -url, no -shards)")
	}

	cfg := loadgen.Config{
		BaseURL:       *url,
		Classes:       classes,
		Passes:        *passes,
		Segments:      *segments,
		ViewportScale: *viewportScale,
		Resilient:     *resilient,
	}
	fetch := client.DefaultFetchConfig()
	fetch.Timeout = *timeout
	fetch.MaxRetries = *retries
	fetch.CacheSegments = *cache
	fetch.Prefetch = *prefetch
	cfg.Fetch = &fetch

	opts := server.DefaultServiceOptions()
	opts.RespCacheBytes = *respcache << 20
	opts.MaxInFlight = *maxInflight
	opts.StoreDelay = *storeDelay
	ingest := server.DefaultIngestConfig()
	ingest.FullW = *width - *width%8
	ingest.FullH = ingest.FullW / 2
	ingest.MaxSegments = *segments
	ingest.Tiled = *mode != ""

	var tier *cluster.Cluster
	if *url == "" {
		copts := cluster.Options{Shards: *shards, VirtualNodes: *vnodes, EdgeCacheBytes: -1, Shard: opts}
		if *edgeCache > 0 {
			copts.EdgeCacheBytes = *edgeCache << 20
		}
		var err error
		if tier, err = cluster.New(nil, copts); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		for _, spec := range specs {
			if _, err := tier.Ingest(spec, ingest); err != nil {
				log.Fatalf("ingesting %s: %v", spec.Name, err)
			}
		}
		log.Printf("ingested %d video(s) in-process (%d segments at %dx%d) in %v",
			len(specs), *segments, ingest.FullW, ingest.FullH, time.Since(start).Round(time.Millisecond))

		baseURL, shutdown, err := loadgen.ServeHandler(tier.Handler())
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		log.Printf("serving on %s: %d shards (0 = one server, no router), edge cache %d MiB, respcache %d MiB/shard, max in-flight %d, store delay %v",
			baseURL, *shards, *edgeCache, *respcache, *maxInflight, *storeDelay)
		cfg.BaseURL = baseURL
		cfg.Tier = tier
	}
	if *killShard >= 0 {
		cfg.OnPassStart = func(pass int) {
			if pass == *killPass {
				log.Printf("killing shard %d at pass %d", *killShard, pass)
				if err := tier.KillShard(*killShard); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	if *mode == frontier {
		if err := runFrontier(os.Stdout, cfg, ingest.FullW, ingest.FullH); err != nil {
			log.Fatal(err)
		}
		return
	}

	rep, err := loadgen.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep.WriteText(os.Stdout, *perUser)
	if fails := rep.Failures(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "evrload: %d/%d sessions failed\n", len(fails), len(rep.Results))
		os.Exit(1)
	}

	if *verifySingle {
		if err := verifyAgainstSingle(tier, specs, cfg, opts, rep); err != nil {
			fmt.Fprintf(os.Stderr, "evrload: single-server verification FAILED: %v\n", err)
			os.Exit(1)
		}
		log.Printf("verify-single: routed playback byte-identical to single-server for all %d users", *users)
	}
}

// verifyAgainstSingle replays the run against one plain server — a Shards-0
// tier over the cluster's store (manifests re-published, no re-ingest) —
// and requires every user's displayed-frame checksum to match the routed
// run: the gate that proves the sharded tier never changes pixels.
func verifyAgainstSingle(clu *cluster.Cluster, specs []scene.VideoSpec, cfg loadgen.Config, opts server.ServiceOptions, routed *loadgen.Report) error {
	oracle, err := cluster.New(clu.Store(), cluster.Options{Shard: opts})
	if err != nil {
		return err
	}
	for _, spec := range specs {
		man, ok := clu.Shard(0).Manifest(spec.Name)
		if !ok {
			return fmt.Errorf("shard 0 has no manifest for %s", spec.Name)
		}
		oracle.Publish(man)
	}
	baseURL, shutdown, err := loadgen.ServeHandler(oracle.Handler())
	if err != nil {
		return err
	}
	defer shutdown()

	single := cfg
	single.BaseURL = baseURL
	single.Tier = oracle
	single.OnPassStart = nil
	single.Passes = 1
	ref, err := loadgen.Run(single)
	if err != nil {
		return err
	}

	want := map[int]uint64{}
	for _, r := range ref.Results {
		if r.Err != nil {
			return fmt.Errorf("single-server user %d failed: %v", r.User, r.Err)
		}
		want[r.User] = r.Checksum
	}
	for _, r := range routed.Results {
		if r.Err != nil {
			return fmt.Errorf("routed user %d pass %d failed: %v", r.User, r.Pass, r.Err)
		}
		if r.Checksum != want[r.User] {
			return fmt.Errorf("user %d pass %d: routed checksum %#x != single-server %#x",
				r.User, r.Pass, r.Checksum, want[r.User])
		}
	}
	return nil
}
