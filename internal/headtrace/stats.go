package headtrace

import (
	"sort"

	"evr/internal/projection"
	"evr/internal/scene"
)

// CoverageCurve computes the Fig. 5 statistic: for x = 1..len(objects),
// the percentage of (user, frame) pairs in which at least one of the top-x
// objects falls inside the user's viewing area. Objects are ranked by their
// individual coverage, mirroring the paper's "identified objects" ordering.
func CoverageCurve(v scene.VideoSpec, traces []Trace, vp projection.Viewport) []float64 {
	nObj := len(v.Objects)
	if nObj == 0 || len(traces) == 0 {
		return nil
	}
	// covered[o] = per-object hit count; union computed after ranking.
	perObject := make([]int, nObj)
	// visible[u][f] is too large to store densely for all users; instead
	// keep, per (user, frame), the bitmask of visible objects (≤ 13 ⇒ one
	// uint16 each).
	type key struct{ u, f int }
	totalFrames := 0
	masks := make([]uint16, 0)
	for _, tr := range traces {
		for fi, s := range tr.Samples {
			_ = fi
			var mask uint16
			objs := v.ObjectsAt(s.T)
			for oi, obj := range objs {
				if vp.Contains(s.O, obj.Dir) {
					mask |= 1 << uint(oi)
					perObject[oi]++
				}
			}
			masks = append(masks, mask)
			totalFrames++
		}
	}
	// Rank objects by individual coverage, descending.
	order := make([]int, nObj)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return perObject[order[a]] > perObject[order[b]] })

	curve := make([]float64, nObj)
	var cum uint16
	for x := 0; x < nObj; x++ {
		cum |= 1 << uint(order[x])
		hits := 0
		for _, m := range masks {
			if m&cum != 0 {
				hits++
			}
		}
		curve[x] = 100 * float64(hits) / float64(totalFrames)
	}
	return curve
}

// TrackingSpells returns the durations (seconds) of maximal runs during
// which a trace keeps the same object inside a tracking cone around the
// gaze. This is the paper's "time durations during which users keep
// tracking the movement of the same object" (Fig. 6).
func TrackingSpells(v scene.VideoSpec, tr Trace, coneRad float64) []float64 {
	if len(v.Objects) == 0 || len(tr.Samples) == 0 {
		return nil
	}
	dt := 1.0 / float64(tr.FPS)
	var spells []float64
	curObj := -1
	runLen := 0.0
	flush := func() {
		if curObj >= 0 && runLen > 0 {
			spells = append(spells, runLen)
		}
		runLen = 0
	}
	for _, s := range tr.Samples {
		fwd := s.O.Forward()
		best, bestAng := -1, coneRad
		for oi, obj := range v.ObjectsAt(s.T) {
			if ang := fwd.Angle(obj.Dir); ang < bestAng {
				best, bestAng = oi, ang
			}
		}
		if best != curObj {
			flush()
			curObj = best
		}
		if curObj >= 0 {
			runLen += dt
		}
	}
	flush()
	return spells
}

// TrackingCDF computes the Fig. 6 curve: for each threshold x seconds, the
// percentage of total tracked time spent in spells of duration ≥ x.
func TrackingCDF(v scene.VideoSpec, traces []Trace, coneRad float64, thresholds []float64) []float64 {
	var spells []float64
	var total float64
	for _, tr := range traces {
		for _, s := range TrackingSpells(v, tr, coneRad) {
			spells = append(spells, s)
			total += s
		}
	}
	out := make([]float64, len(thresholds))
	if total == 0 {
		return out
	}
	for i, th := range thresholds {
		var acc float64
		for _, s := range spells {
			if s >= th {
				acc += s
			}
		}
		out[i] = 100 * acc / total
	}
	return out
}
