package delivery

import (
	"testing"

	"evr/internal/netsim"
)

// linkWithBudget builds a link whose per-segment byte budget (after the
// safety discount) is exactly b bytes for a 1 s segment.
func linkWithBudget(p PolicyConfig, b float64) netsim.Link {
	return netsim.Link{BandwidthBps: b * 8 / (p.SegmentDuration * bandwidthSafety), RTTSeconds: 1e-3}
}

// driveWave runs the policy over a square-wave budget trace oscillating
// ±swing around the FOV stream size, feeding each decision back as the next
// segment's LastMode, and returns the mode switch count and mode sequence.
func driveWave(p PolicyConfig, segments int, fovBytes int64, swing float64, withHistory bool) (int, []Mode) {
	trace := netsim.Trace{Steps: []netsim.Link{
		linkWithBudget(p, float64(fovBytes)*(1+swing)),
		linkWithBudget(p, float64(fovBytes)*(1-swing)),
	}}
	last := ModeAuto
	switches := 0
	modes := make([]Mode, 0, segments)
	for i := 0; i < segments; i++ {
		p.Link = trace.At(i)
		in := SegmentInputs{
			FOVBytes:      fovBytes,
			FOVConfidence: 0.9,
			TiledBytes:    fovBytes * 3,
			OrigBytes:     fovBytes * 4,
		}
		if withHistory {
			in.LastMode = last
		}
		d := p.Decide(in)
		if last != ModeAuto && d.Mode != last {
			switches++
		}
		last = d.Mode
		modes = append(modes, d.Mode)
	}
	return switches, modes
}

func TestPolicyNoFlapOnOscillatingBandwidth(t *testing.T) {
	// The budget square-waves ±5% around the FOV stream size every
	// segment. With the 15% hysteresis and decision feedback the
	// policy must settle: at most one switch over 20 segments.
	p := DefaultPolicy(1.0)
	switches, modes := driveWave(p, 20, 100_000, 0.05, true)
	if switches > 1 {
		t.Errorf("mode flapped %d times under ±5%% budget wave: %v", switches, modes)
	}
	// Sanity: the memoryless policy (no LastMode) does flap on the same
	// trace — the hysteresis is load-bearing, not vacuous.
	switches, modes = driveWave(p, 20, 100_000, 0.05, false)
	if switches < 5 {
		t.Errorf("memoryless policy should flap on boundary wave, got %d switches: %v", switches, modes)
	}
}

func TestPolicyStillSwitchesOnLargeChange(t *testing.T) {
	// Hysteresis must not pin the mode forever: a budget collapse far
	// outside the band (10× below the FOV size) forces a downgrade.
	p := DefaultPolicy(1.0)
	fov := int64(100_000)
	in := SegmentInputs{FOVBytes: fov, FOVConfidence: 0.9, TiledBytes: fov * 3, OrigBytes: fov * 4, LastMode: ModeFOV}

	p.Link = linkWithBudget(p, float64(fov)*2)
	if d := p.Decide(in); d.Mode != ModeFOV {
		t.Fatalf("ample budget: mode = %v (%s)", d.Mode, d.Reason)
	}
	p.Link = linkWithBudget(p, float64(fov)/10)
	if d := p.Decide(in); d.Mode == ModeFOV {
		t.Errorf("collapsed budget: policy stuck in FOV (%s)", d.Reason)
	}
}
