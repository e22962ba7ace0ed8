// Command evrclient plays a video from an EVR server, replaying a synthetic
// user's head trace, and reports the playback statistics: FOV hits, misses,
// fallbacks, fetched bytes, PTE-rendered frames, and the fetch layer's
// cache/retry/timeout counters. With -telemetry it also prints the
// per-stage pipeline breakdown (fetch, decode, FOV check, render, display)
// with p50/p95/p99 latencies from the per-frame tracer.
//
// With -tiled-mode (against a tiled-ingested video) the player runs the
// viewport-adaptive delivery engine: every segment is fetched as the FOV
// stream, a predicted-viewport tile set, or the full original — per the
// three-way policy (auto) or pinned to one of them — and the stats gain a
// delivery section (mode split, tiles fetched/lost/mispredicted, modeled
// link bytes and stalls).
//
// Usage:
//
//	evrclient [-url http://localhost:8090] [-video RS] [-user 0] [-segments 4]
//	          [-har] [-resilient] [-timeout 10s] [-retries 3]
//	          [-cache 8] [-prefetch] [-max-response 67108864]
//	          [-tiled-mode auto|fov|tiled|orig]
//	          [-telemetry] [-pprof localhost:6061]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served via -pprof
	"time"

	"evr/internal/client"
	"evr/internal/delivery"
	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/ptlut"
	"evr/internal/scene"
	"evr/internal/telemetry"
)

func main() {
	url := flag.String("url", "http://localhost:8090", "EVR server base URL")
	video := flag.String("video", "RS", "video name")
	user := flag.Int("user", 0, "user index for the head trace")
	segments := flag.Int("segments", 4, "segments to play (0 = all available)")
	har := flag.Bool("har", true, "render FOV misses on the PTE accelerator")
	lut := flag.Bool("lut", false, "render FOV misses through the mapping-LUT cache (implies -har=false)")
	lutQuant := flag.Float64("lut-quant", 0, "LUT pose-grid step in degrees (0 = exact mode, byte-identical; > 0 shares tables across nearby poses)")
	resilient := flag.Bool("resilient", false, "survive corrupt/missing payloads (degrade instead of abort)")
	timeout := flag.Duration("timeout", client.DefaultFetchConfig().Timeout, "per-request HTTP timeout (0 = none)")
	retries := flag.Int("retries", client.DefaultFetchConfig().MaxRetries, "retries per request on transient failures")
	cache := flag.Int("cache", client.DefaultFetchConfig().CacheSegments, "segment LRU cache capacity (0 = off)")
	prefetch := flag.Bool("prefetch", true, "prefetch what the next segment plays (its FOV video, or its original when it has none) in the background")
	maxResponse := flag.Int64("max-response", client.DefaultFetchConfig().MaxResponseBytes, "response size cap in bytes (0 = unlimited)")
	tiledMode := flag.String("tiled-mode", "", "viewport-adaptive tiled delivery (needs a tiled ingest): auto lets the policy choose per segment between the FOV stream, a per-tile fetch set, and the full original; fov|tiled|orig pin one (empty = classic FOV/orig player)")
	useTelemetry := flag.Bool("telemetry", false, "trace per-frame pipeline stages and print the breakdown")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6061; empty = off)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			log.Printf("pprof server exited: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	v, ok := scene.ByName(*video)
	if !ok {
		log.Fatalf("unknown video %q", *video)
	}
	p := client.NewPlayer(*url)
	if *useTelemetry {
		p.Trace = telemetry.NewTracer(0)
	}
	p.UseHAR = *har
	if *lut {
		p.UseHAR = false
		p.UseLUT = true
		p.LUTOptions = ptlut.Options{
			QuantStep:    geom.Radians(*lutQuant),
			QuantWeights: *lutQuant > 0,
		}
	}
	p.Resilient = *resilient
	p.Fetch.Timeout = *timeout
	p.Fetch.MaxRetries = *retries
	p.Fetch.CacheSegments = *cache
	p.Fetch.Prefetch = *prefetch
	p.Fetch.MaxResponseBytes = *maxResponse
	if *tiledMode != "" {
		force, err := delivery.ParseMode(*tiledMode)
		if err != nil {
			log.Fatalf("-tiled-mode: %v", err)
		}
		p.Tiled = client.TiledConfig{Enabled: true, Force: force}
	}
	imu := hmd.NewIMU(headtrace.Generate(v, *user))

	start := time.Now()
	stats, frames, err := p.Play(*video, imu, *segments)
	if err != nil {
		log.Fatalf("playback failed: %v", err)
	}
	elapsed := time.Since(start)

	fmt.Printf("played %s (user %d) through %s\n", *video, *user, *url)
	fmt.Printf("  frames:         %d (%d displayed)\n", stats.Frames, len(frames))
	fmt.Printf("  FOV hits:       %d (%.1f%%)\n", stats.Hits, 100*float64(stats.Hits)/float64(max(1, stats.Frames)))
	fmt.Printf("  FOV misses:     %d\n", stats.Misses)
	fmt.Printf("  fallbacks:      %d segments\n", stats.Fallbacks)
	fmt.Printf("  PTE frames:     %d\n", stats.PTEFrames)
	if *lut {
		fmt.Printf("  LUT frames:     %d\n", stats.LUTFrames)
		if st := p.LUTCache.Stats(); st.Hits+st.Misses > 0 {
			fmt.Printf("  LUT tables:     %d built, %d hits, %d resident (%d bytes)\n",
				st.Misses, st.Hits, st.Entries, st.Bytes)
		}
	}
	if p.Tiled.Enabled {
		fmt.Printf("  delivery:       %d fov / %d tiled / %d orig segments\n",
			stats.ModeFOVSegments, stats.ModeTiledSegments, stats.ModeOrigSegments)
		fmt.Printf("  tiles:          %d fetched, %d lost to backfill, %d mispredicted frame-tiles\n",
			stats.TiledTiles, stats.TiledTileErrors, stats.MispredictedTiles)
		fmt.Printf("  modeled link:   %d B, %d stalls (%.2fs), startup %.2fs\n",
			stats.ModeledBytes, stats.ModeledStalls, stats.ModeledStallSec, stats.ModeledStartupSec)
	}
	fmt.Printf("  bytes fetched:  %d\n", stats.BytesFetched)
	fmt.Printf("  cache hits:     %d (%d via prefetch)\n", stats.CacheHits, stats.PrefetchHits)
	fmt.Printf("  retries:        %d\n", stats.Retries)
	fmt.Printf("  timeouts:       %d\n", stats.TimedOut)
	if *resilient {
		fmt.Printf("  payload errors: %d (%d frozen frames)\n", stats.PayloadErrors, stats.FrozenFrames)
	}
	fmt.Printf("  wall time:      %v\n", elapsed.Round(time.Millisecond))
	if p.Trace != nil {
		printStageBreakdown(p.Trace)
	}
}

// printStageBreakdown renders the tracer's per-stage summary: how the
// pipeline's time splits across fetch/decode/FOV check/render/display,
// with tail latencies. Fetch and decode include the prefetcher's hidden
// background work; the other stages are per displayed frame.
func printStageBreakdown(tr *telemetry.Tracer) {
	fmt.Printf("\nstage breakdown (%d frames traced; fetch/decode include prefetch work):\n", tr.Frames())
	fmt.Printf("  %-9s %7s %12s %10s %10s %10s %10s %10s\n",
		"stage", "count", "total", "mean", "p50", "p95", "p99", "max")
	for _, s := range tr.Summary() {
		fmt.Printf("  %-9s %7d %12v %10v %10v %10v %10v %10v\n",
			s.Stage, s.Count, s.Total.Round(time.Microsecond),
			s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
			s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
			s.Max.Round(time.Microsecond))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
