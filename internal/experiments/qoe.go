package experiments

import (
	"fmt"

	"evr/internal/client"
	"evr/internal/delivery"
	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/hmp"
	"evr/internal/latency"
	"evr/internal/netsim"
	"evr/internal/sas"
	"evr/internal/scene"
)

// QoETable plays the real per-segment byte sequences of baseline and S+H
// streaming through the buffer/stall timeline: startup delay, stall
// behaviour, and buffer occupancy on the paper's 300 Mbps link. This deepens
// Fig. 13's FPS-drop result with a full buffering timeline.
func QoETable(users int) Table {
	t := Table{
		ID:     "Cmp 2",
		Title:  "Streaming QoE (buffer simulation): baseline vs S+H segment streams",
		Header: []string{"video", "scheme", "startup (ms)", "stalls/user", "stall time (ms)", "mean buffer (s)"},
		Notes: []string{
			"300 Mbps WiFi, 2-segment startup, 4-segment buffer cap;",
			"S+H streams smaller FOV segments (faster startup) with occasional",
			"oversized fallback fetches (the source of its rare stalls)",
		},
	}
	cfg := sas.DefaultConfig()
	for _, v := range scene.EvalSet() {
		plan, err := sas.BuildPlan(v, cfg)
		if err != nil {
			panic(err)
		}
		segDur := float64(cfg.SegmentFrames) / float64(v.FPS)
		session := func(segs []int64) netsim.Timeline {
			tl := netsim.Timeline{Link: netsim.WiFi300(), SegmentDuration: segDur, StartupSegments: 2, BufferCapSegments: 4}
			for _, b := range segs {
				tl.Advance(b)
			}
			return tl
		}

		// Baseline: the original segment sequence, user-independent.
		var baseSegs []int64
		for _, seg := range plan.Segments {
			baseSegs = append(baseSegs, seg.OrigBytes)
		}
		base := session(baseSegs)

		// S+H: per-user sequences — chosen FOV video per segment, plus the
		// original appended to the same slot on a fallback.
		var startup, stallT, buffer float64
		var stalls int
		for u := 0; u < users; u++ {
			r := session(shSegmentBytes(v, plan, u))
			startup += r.StartupDelay
			stallT += r.StallSec
			stalls += r.Stalls
			buffer += r.MeanBufferLead()
		}
		n := float64(users)
		t.Rows = append(t.Rows,
			[]string{v.Name, "baseline",
				fmt.Sprintf("%.1f", base.StartupDelay*1e3),
				fmt.Sprintf("%d", base.Stalls),
				fmt.Sprintf("%.1f", base.StallSec*1e3),
				f2(base.MeanBufferLead())},
			[]string{v.Name, "S+H",
				fmt.Sprintf("%.1f", startup/n*1e3),
				f1(float64(stalls) / n),
				fmt.Sprintf("%.1f", stallT/n*1e3),
				f2(buffer / n)},
		)
	}
	return t
}

// shSegmentBytes returns the byte sequence one user's S+H session streams
// per segment, as the client model plays it: the chosen FOV video, plus
// the original in the same slot on a fallback.
func shSegmentBytes(v scene.VideoSpec, plan *sas.Plan, user int) []int64 {
	r, err := client.Simulate(v, headtrace.Generate(v, user), plan, client.DefaultConfig(client.SH, client.OnlineStreaming))
	if err != nil {
		panic(err)
	}
	return r.SegmentBytes
}

// PredictionTable measures head-motion prediction accuracy vs horizon for a
// realistic constant-velocity predictor against the §8.5 oracle — how
// generous the paper's "perfect prediction" assumption is on saccadic head
// motion.
func PredictionTable(users int) Table {
	t := Table{
		ID:     "Cmp 3",
		Title:  "Head-motion prediction accuracy vs horizon (15° tolerance)",
		Header: []string{"video", "linear 5fr", "linear 30fr", "linear 90fr", "oracle"},
		Notes: []string{
			"a constant-velocity predictor collapses beyond ~1 s, which is why",
			"§8.5's perfect-prediction comparison is generous to the HMP design",
		},
	}
	lin := hmp.LinearPredictor{VelocityWindow: 3}
	tol := geom.Radians(15)
	for _, v := range scene.EvalSet() {
		var a5, a30, a90 float64
		for u := 0; u < users; u++ {
			tr := headtrace.Generate(v, u)
			a5 += hmp.MeasureAccuracy(lin, tr, 5, tol)
			a30 += hmp.MeasureAccuracy(lin, tr, 30, tol)
			a90 += hmp.MeasureAccuracy(lin, tr, 90, tol)
		}
		n := float64(users)
		t.Rows = append(t.Rows, []string{
			v.Name, pct(a5 / n), pct(a30 / n), pct(a90 / n), "100.0%",
		})
	}
	return t
}

// ABRTable evaluates adaptive-bitrate delivery of the S+H FOV streams under
// progressively constrained links — the degradation path a production
// deployment needs beyond the paper's 300 Mbps evaluation network.
func ABRTable(users int) Table {
	t := Table{
		ID:     "Cmp 4",
		Title:  "ABR delivery of S+H streams under constrained links (Elephant)",
		Header: []string{"link", "scheme", "stalls/user", "stall time (ms)", "mean rung", "bytes vs top"},
		Notes: []string{
			"3-rung ladder (100%/60%/35%), buffer-based controller, 2-segment fast start;",
			"fixed-top stalls when the link tightens, ABR degrades quality instead",
		},
	}
	v, _ := scene.ByName("Elephant")
	cfg := sas.DefaultConfig()
	plan, err := sas.BuildPlan(v, cfg)
	if err != nil {
		panic(err)
	}
	segDur := float64(cfg.SegmentFrames) / float64(v.FPS)
	ratios := []float64{1.0, 0.6, 0.35} // rung r costs ratios[r] of the top rung's bytes

	for _, link := range []struct {
		name string
		l    netsim.Link
	}{
		{"300 Mbps", netsim.WiFi300()},
		{"40 Mbps", netsim.Link{BandwidthBps: 40e6, RTTSeconds: 5e-3}},
		{"15 Mbps", netsim.Link{BandwidthBps: 15e6, RTTSeconds: 10e-3}},
	} {
		var fStalls, fStallT, aStalls, aStallT, aBytes, aRung, topBytes float64
		for u := 0; u < users; u++ {
			top := shSegmentBytes(v, plan, u)
			fixed := netsim.Timeline{Link: link.l, SegmentDuration: segDur, StartupSegments: 2}
			adaptive := fixed
			var rungSum float64
			for _, b := range top {
				topBytes += float64(b)
				fixed.Advance(b)
				rung := len(ratios) - 1 // fast start
				if adaptive.Started() {
					rung = delivery.BufferRung(adaptive.Buffer(), segDur, len(ratios))
				}
				rungSum += float64(rung)
				adaptive.Advance(int64(float64(b) * ratios[rung]))
			}
			fStalls += float64(fixed.Stalls)
			fStallT += fixed.StallSec
			aStalls += float64(adaptive.Stalls)
			aStallT += adaptive.StallSec
			aBytes += float64(adaptive.Bytes)
			aRung += rungSum / float64(len(top))
		}
		n := float64(users)
		t.Rows = append(t.Rows,
			[]string{link.name, "fixed-top", f1(fStalls / n), f1(fStallT / n * 1e3), "0.00", "100%"},
			[]string{link.name, "ABR", f1(aStalls / n), f1(aStallT / n * 1e3), f2(aRung / n),
				fmt.Sprintf("%.0f%%", 100*aBytes/topBytes)},
		)
	}
	return t
}

// LatencyTable reports motion-to-photon latency and sustained throughput of
// the three client rendering paths — the latency complement to the paper's
// energy results: every step EVR removes also shortens the photon path.
func LatencyTable() Table {
	t := Table{
		ID:     "Cmp 5",
		Title:  "Motion-to-photon latency by rendering path (60 Hz panel)",
		Header: []string{"path", "M2P (ms)", "throughput (FPS)", "bottleneck"},
		Notes: []string{
			"stage latencies match the energy model's throughput figures;",
			"SAS hits skip PT entirely, the PTE is DMA-bound at ~52 FPS (§7.2)",
		},
	}
	for _, row := range []struct {
		name string
		p    latency.Pipeline
	}{
		{"baseline (GPU PT)", latency.GPUPipeline(60)},
		{"HAR (PTE)", latency.PTEPipeline(60)},
		{"SAS hit (no PT)", latency.SASHitPipeline(60)},
	} {
		t.Rows = append(t.Rows, []string{
			row.name,
			f1(row.p.MotionToPhotonSeconds() * 1e3),
			f1(row.p.ThroughputFPS()),
			row.p.Bottleneck(),
		})
	}
	return t
}
