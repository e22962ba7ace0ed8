// Package delivery implements the three-way per-segment delivery policy —
// cluster FOV stream vs per-tile set vs full-orig fallback — plus the tile
// transport pieces it needs: a tile wire format, viewport assembly with
// low-res backfill, and buffer-based rung selection, per tile under a byte
// budget.
//
// The package is a leaf: it depends only on codec/frame/display/geom/
// projection/tiling/netsim so that both the server (ingest, HTTP) and the
// client (Player) can import it without cycles.
package delivery

import (
	"fmt"

	"evr/internal/geom"
	"evr/internal/netsim"
)

// Mode identifies which of the three delivery paths serves a segment.
type Mode int

const (
	// ModeAuto lets the policy engine decide per segment.
	ModeAuto Mode = iota
	// ModeFOV delivers the pre-rendered cluster FOV stream (SAS).
	ModeFOV
	// ModeTiled delivers the visible tile set at per-tile quality rungs
	// plus the low-res full-frame backfill stream.
	ModeTiled
	// ModeOrig delivers the full original segment.
	ModeOrig
)

// String names the mode for reports and logs.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeFOV:
		return "fov"
	case ModeTiled:
		return "tiled"
	case ModeOrig:
		return "orig"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode is the inverse of String: the one place a delivery word
// becomes a Mode.
func ParseMode(s string) (Mode, error) {
	for m := ModeAuto; m <= ModeOrig; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("delivery: unknown mode %q (auto, fov, tiled, orig)", s)
}

// PolicyConfig parameterizes the per-segment mode decision.
type PolicyConfig struct {
	// SegmentDuration is the playback duration of one segment in seconds.
	SegmentDuration float64
	// Link models the access network used to derive byte budgets.
	Link netsim.Link
}

// The policy's fixed thresholds.
const (
	// fovConfidenceMin is the minimum predicted FOV-hit confidence
	// required to commit to the pre-rendered FOV stream.
	fovConfidenceMin = 0.5
	// bandwidthSafety discounts the link's nominal capacity when computing
	// the per-segment byte budget, absorbing estimate error.
	bandwidthSafety = 0.8
	// hysteresis widens the decision boundaries by this relative margin
	// when SegmentInputs.LastMode is set: staying in the current mode
	// tolerates inputs up to (1+h) past a threshold, while switching into
	// a new mode requires clearing it by (1-h). Bounds mode flapping when
	// the budget oscillates around a boundary.
	hysteresis = 0.15
)

// DefaultPolicy returns the policy used by the tiled client and load
// harness unless overridden.
func DefaultPolicy(segmentDuration float64) PolicyConfig {
	return PolicyConfig{
		SegmentDuration: segmentDuration,
		Link:            netsim.WiFi300(),
	}
}

// Validate rejects non-physical policy parameters.
func (p PolicyConfig) Validate() error {
	if p.SegmentDuration <= 0 {
		return fmt.Errorf("delivery: SegmentDuration %v must be positive", p.SegmentDuration)
	}
	if err := p.Link.Validate(); err != nil {
		return fmt.Errorf("delivery: policy link: %w", err)
	}
	return nil
}

// ByteBudget is the number of bytes the link can move in one segment
// duration after the safety discount.
func (p PolicyConfig) ByteBudget() int64 {
	return int64(p.Link.BandwidthBps / 8 * p.SegmentDuration * bandwidthSafety)
}

// SegmentInputs carries everything the policy sees for one segment.
type SegmentInputs struct {
	// FOVBytes is the size of the best-cluster FOV stream, or 0 when no
	// cluster covers the predicted pose.
	FOVBytes int64
	// FOVConfidence is the predicted FOV-hit confidence in [0,1].
	FOVConfidence float64
	// TiledBytes is the modeled size of the chosen tile set plus the
	// low-res backfill stream, or 0 when tiles are unavailable.
	TiledBytes int64
	// OrigBytes is the size of the full original segment.
	OrigBytes int64
	// BufferSec is the client's current playback buffer in seconds.
	BufferSec float64
	// LastMode is the mode chosen for the previous segment; the policy's
	// hysteresis band favors staying in it. ModeAuto (the zero value)
	// means no history, so the decision is memoryless.
	LastMode Mode
}

// Decision is the policy outcome for one segment.
type Decision struct {
	Mode   Mode
	Reason string
}

// Decide picks the delivery mode for one segment. The FOV stream wins when
// the prediction is confident and the stream fits the budget — it is the
// cheapest and the paper's preferred path. Otherwise tiles win whenever
// they undercut the full original; orig is the always-correct fallback.
//
// With a LastMode in the inputs, each threshold shifts by ±h (hysteresis)
// depending on whether the candidate mode matches the previous one:
// keeping the current mode is allowed up to (1+h) past the nominal
// boundary, entering a different mode requires clearing it by (1-h). A
// budget oscillating a few percent around a boundary therefore produces at
// most one switch instead of per-segment flapping.
func (p PolicyConfig) Decide(in SegmentInputs) Decision {
	fovBudget := float64(p.ByteBudget())
	fovMin := fovConfidenceMin
	tiledCeiling := float64(in.OrigBytes)
	switch in.LastMode {
	case ModeFOV:
		fovBudget *= 1 + hysteresis
		fovMin *= 1 - hysteresis
	case ModeTiled:
		fovBudget *= 1 - hysteresis
		tiledCeiling *= 1 + hysteresis
	case ModeOrig:
		fovBudget *= 1 - hysteresis
		tiledCeiling *= 1 - hysteresis
	}
	if in.FOVBytes > 0 && in.FOVConfidence >= fovMin && float64(in.FOVBytes) <= fovBudget {
		return Decision{Mode: ModeFOV, Reason: fmt.Sprintf("fov confidence %.2f >= %.2f, %dB within budget %dB", in.FOVConfidence, fovMin, in.FOVBytes, int64(fovBudget))}
	}
	if in.TiledBytes > 0 && float64(in.TiledBytes) < tiledCeiling {
		return Decision{Mode: ModeTiled, Reason: fmt.Sprintf("tiles %dB < orig ceiling %dB", in.TiledBytes, int64(tiledCeiling))}
	}
	return Decision{Mode: ModeOrig, Reason: "fallback to full original"}
}

// FOVConfidence scores how likely the pre-rendered cluster at clusterO
// still covers the predicted pose: 1 at perfect alignment, linearly down
// to 0 at the FOV tolerance.
func FOVConfidence(predicted, clusterO geom.Orientation, tolerance float64) float64 {
	if tolerance <= 0 {
		return 0
	}
	d := predicted.AngularDistance(clusterO)
	c := 1 - d/tolerance
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// DemotePeripheral applies acuity falloff to a tile rung assignment:
// fetched tiles whose center lies more than cutoff radians from the
// predicted gaze drop one rung, and beyond twice the cutoff two rungs
// (clamped to each tile's coarsest). The fovea keeps full quality while
// the periphery — which the viewer resolves poorly and the predictor is
// least sure about — ships fewer bytes. cutoff <= 0 is a no-op.
func DemotePeripheral(rungs []int, tileBytes [][]int, dist []float64, cutoff float64) {
	if cutoff <= 0 {
		return
	}
	for t, r := range rungs {
		if r < 0 || t >= len(dist) || t >= len(tileBytes) {
			continue
		}
		steps := 0
		if dist[t] > cutoff {
			steps = 1
		}
		if dist[t] > 2*cutoff {
			steps = 2
		}
		r += steps
		if max := len(tileBytes[t]) - 1; r > max {
			r = max
		}
		rungs[t] = r
	}
}

// BufferRung is the buffer-based rung pick (BOLA-style): the fuller the
// playback buffer, the finer the rung. Rung r of rungs (0 finest) needs
// (rungs−1−r) segment durations buffered, so the finest needs rungs−1
// segments and the coarsest none.
func BufferRung(bufferSec, segDur float64, rungs int) int {
	for r := 0; r < rungs-1; r++ {
		if bufferSec >= float64(rungs-1-r)*segDur {
			return r
		}
	}
	return rungs - 1
}

// PickTileRungs assigns a quality rung to every visible tile under a byte
// budget. Visible tiles start at baseRung (the BufferRung pick); while the
// total exceeds the budget, the visible tile farthest from the gaze
// direction that is not yet at the lowest rung is demoted one rung.
// Invisible tiles get -1. tileBytes[t][r] is the encoded size of tile t at
// rung r (rung 0 finest); dist[t] is the angular distance from the predicted
// gaze to the tile center. A budget <= 0 means unlimited.
func PickTileRungs(visible []bool, tileBytes [][]int, baseRung int, budget int64, dist []float64) []int {
	n := len(visible)
	rungs := make([]int, n)
	var total int64
	for t := 0; t < n; t++ {
		if !visible[t] {
			rungs[t] = -1
			continue
		}
		r := baseRung
		if len(tileBytes[t]) == 0 {
			rungs[t] = -1
			continue
		}
		if r < 0 {
			r = 0
		}
		if r >= len(tileBytes[t]) {
			r = len(tileBytes[t]) - 1
		}
		rungs[t] = r
		total += int64(tileBytes[t][r])
	}
	if budget <= 0 {
		return rungs
	}
	for total > budget {
		// Demote the farthest visible tile that can still drop a rung.
		// Ties break on the lower tile index so the result is
		// deterministic for identical inputs.
		best := -1
		for t := 0; t < n; t++ {
			if rungs[t] < 0 || rungs[t] >= len(tileBytes[t])-1 {
				continue
			}
			if best == -1 || dist[t] > dist[best] {
				best = t
			}
		}
		if best == -1 {
			break // everything already at the lowest rung
		}
		total -= int64(tileBytes[best][rungs[best]])
		rungs[best]++
		total += int64(tileBytes[best][rungs[best]])
	}
	return rungs
}
