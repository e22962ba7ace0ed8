package loadgen

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// WriteText renders the report as the evrload CLI output: a per-pass
// summary, the request-latency distribution, and (with perUser) one row
// per session.
func (r *Report) WriteText(w io.Writer, perUser bool) {
	if len(r.Videos) > 1 {
		fmt.Fprintf(w, "loadgen: %d users × %d pass(es) over %d videos", r.Users, r.Passes, len(r.Videos))
	} else {
		fmt.Fprintf(w, "loadgen: %d users × %d pass(es) over %s", r.Users, r.Passes, r.Video)
	}
	if r.Segments > 0 {
		fmt.Fprintf(w, " (%d segments)", r.Segments)
	}
	fmt.Fprintf(w, ", wall time %v\n", r.Elapsed.Round(time.Millisecond))

	for _, ps := range r.PerPass {
		fmt.Fprintf(w, "pass %d: %d frames in %v (%.0f fps aggregate), FOV hit %.1f%%, %s fetched",
			ps.Pass, ps.Frames, ps.Elapsed.Round(time.Millisecond), ps.FramesPerSec, 100*ps.HitRate, byteSize(ps.BytesFetched))
		if ps.Failures > 0 {
			fmt.Fprintf(w, ", %d/%d sessions FAILED", ps.Failures, ps.Sessions)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "        client cache hits %d, retries %d", ps.CacheHits, ps.Retries)
		if td := ps.Tier; td != nil {
			fmt.Fprintf(w, "; server respcache %d hits / %d misses / %d coalesced, %d throttled",
				td.CacheHits, td.CacheMisses, td.CacheCoalesced, td.Throttled)
		}
		fmt.Fprintln(w)
		if n := ps.ModeFOVSegments + ps.ModeTiledSegments + ps.ModeOrigSegments; n > 0 {
			fmt.Fprintf(w, "        delivery: %d fov / %d tiled / %d orig segments, %d tiles (%d lost), %d mispredicted, modeled %s, %d stalls (%.2fs)\n",
				ps.ModeFOVSegments, ps.ModeTiledSegments, ps.ModeOrigSegments,
				ps.TiledTiles, ps.TiledTileErrors, ps.MispredictedTiles,
				byteSize(ps.ModeledBytes), ps.ModeledStalls, ps.ModeledStallSec)
		}
		if ps.PayloadErrors+ps.FrozenFrames > 0 {
			fmt.Fprintf(w, "        degraded: %d payload errors, %d frozen frames, %d fallbacks\n",
				ps.PayloadErrors, ps.FrozenFrames, ps.Fallbacks)
		}
		fmt.Fprintf(w, "        latency p50 %v  p99 %v\n",
			ps.P50.Round(time.Microsecond), ps.P99.Round(time.Microsecond))
		if cd := ps.Tier; cd != nil && cd.Shards != nil {
			fmt.Fprintf(w, "        cluster: edge hit rate %.1f%% (%d hits / %d misses / %d coalesced), %d rerouted, %d no-shard, skew %.2f×\n",
				100*cd.EdgeHitRate(), cd.EdgeHits, cd.EdgeMisses, cd.EdgeCoalesced,
				cd.Rerouted, cd.NoShard, cd.Skew())
			for _, sh := range cd.Shards {
				state := "up"
				if !sh.Alive {
					state = "DOWN"
				}
				fmt.Fprintf(w, "          %-9s %4s  %6d reqs  %4d shed\n", sh.Name, state, sh.Requests, sh.Shed)
			}
		}
	}

	if len(r.Classes) > 0 {
		fmt.Fprintf(w, "fleet classes:\n")
		fmt.Fprintf(w, "  %-14s %5s %5s %7s %10s %8s %6s %10s %9s %9s %9s\n",
			"class", "users", "fail", "hit%", "bytes", "energy", "waits", "behind-p50", "p99", "max", "stalls")
		for _, cs := range r.Classes {
			behind50, behind99, behindMax := "-", "-", "-"
			if cs.LiveSegments > 0 {
				behind50 = fmt.Sprintf("%.0fms", 1000*cs.BehindLiveP50Sec)
				behind99 = fmt.Sprintf("%.0fms", 1000*cs.BehindLiveP99Sec)
				behindMax = fmt.Sprintf("%.0fms", 1000*cs.BehindLiveMaxSec)
			}
			fmt.Fprintf(w, "  %-14s %5d %5d %6.1f%% %10s %7.2fJ %6d %10s %9s %9s %9d\n",
				cs.Name, cs.Users, cs.Failures, 100*cs.HitRate, byteSize(cs.BytesFetched),
				cs.Ledger.Total(), cs.LiveWaits, behind50, behind99, behindMax, cs.ModeledStalls)
		}
	}

	l := r.Latency
	fmt.Fprintf(w, "request latency (%d requests, %d errors): p50 %v  p95 %v  p99 %v  max %v\n",
		l.Requests, l.Errors,
		l.P50.Round(time.Microsecond), l.P95.Round(time.Microsecond),
		l.P99.Round(time.Microsecond), l.Max.Round(time.Microsecond))

	if hr := r.perUserHitRates(); len(hr) > 0 {
		fmt.Fprintf(w, "per-user FOV-hit rate: min %.1f%%  median %.1f%%  max %.1f%%\n",
			100*hr[0], 100*hr[len(hr)/2], 100*hr[len(hr)-1])
	}

	if perUser {
		fmt.Fprintf(w, "%5s %5s %8s %7s %7s %9s %10s %8s\n",
			"user", "pass", "frames", "hits", "hit%", "fallback", "bytes", "elapsed")
		for _, u := range r.Results {
			if u.Err != nil {
				fmt.Fprintf(w, "%5d %5d  FAILED: %v\n", u.User, u.Pass, u.Err)
				continue
			}
			fmt.Fprintf(w, "%5d %5d %8d %7d %6.1f%% %9d %10d %8v\n",
				u.User, u.Pass, u.Stats.Frames, u.Stats.Hits, 100*u.HitRate(),
				u.Stats.Fallbacks, u.Stats.BytesFetched, u.Elapsed.Round(time.Millisecond))
		}
	}
}

// perUserHitRates returns every successful session's hit rate, sorted.
func (r *Report) perUserHitRates() []float64 {
	var out []float64
	for _, u := range r.Results {
		if u.Err == nil {
			out = append(out, u.HitRate())
		}
	}
	sort.Float64s(out)
	return out
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
