package pte

import (
	"fmt"
	"strings"

	"evr/internal/fixed"
)

// Latitude-region truncation (SPORT, DESIGN.md §16): instead of one
// fixed-point format for the whole datapath, the engine picks the format
// per output pixel from the |latitude| of its view ray. Equator-bound
// pixels — which dominate what a viewer sees under spherical weighting —
// can run wide while polar pixels run truncated, trading invisible
// precision for datapath energy. The datapath is purely per-pixel, so a
// region-composited render is bit-exact with a true per-region engine.

// TruncationRegion maps the latitude band |lat| ≤ MaxAbsLatDeg (beyond the
// previous region's bound) to a datapath format.
type TruncationRegion struct {
	MaxAbsLatDeg float64
	Format       fixed.Format
}

// TruncationPlan is an ordered set of latitude regions covering [0°, 90°].
type TruncationPlan struct {
	Regions []TruncationRegion
}

// FlatPlan returns the single-region plan running the whole datapath in f —
// the configuration the paper's Fig 11 design point corresponds to.
func FlatPlan(f fixed.Format) TruncationPlan {
	return TruncationPlan{Regions: []TruncationRegion{{MaxAbsLatDeg: 90, Format: f}}}
}

// String renders the plan as a compact bitwidth map, e.g.
// "|lat|≤30°:[30, 11] ≤60°:[28, 10] ≤90°:[24, 10]".
func (p TruncationPlan) String() string {
	var b strings.Builder
	for i, r := range p.Regions {
		if i == 0 {
			fmt.Fprintf(&b, "|lat|≤%.0f°:%v", r.MaxAbsLatDeg, r.Format)
		} else {
			fmt.Fprintf(&b, " ≤%.0f°:%v", r.MaxAbsLatDeg, r.Format)
		}
	}
	return b.String()
}

// FormatEnergyScale models the per-cycle datapath energy of a format
// relative to the [28, 10] design point. The PTU datapath splits into the
// CORDIC blocks — iteration-count × adder-width work, and the narrower the
// fraction the fewer unrolled stages an RTL instantiates — and the
// MAC/filtering blocks, whose array multipliers grow quadratically with
// width. The 60/40 split matches the op mix of PerPixelOps for the
// bilinear ERP path.
func FormatEnergyScale(f fixed.Format) float64 {
	ref := fixed.Q2810
	cordic := float64(f.CORDICIterations()*f.TotalBits) / float64(ref.CORDICIterations()*ref.TotalBits)
	w := float64(f.TotalBits) / float64(ref.TotalBits)
	return 0.6*cordic + 0.4*w*w
}

// PlanFrameEnergyJ returns the modeled energy of one PT frame under the
// plan, where share[i] is the fraction of output pixels owned by region i
// (Σ share = 1). Only the datapath share of the power budget scales with
// the format mix; the base (clock tree, DMA, config) share does not. A
// flat [28, 10] plan reduces exactly to Config.FrameEnergyJ.
func (p TruncationPlan) PlanFrameEnergyJ(c Config, fullW, fullH int, share []float64) (float64, error) {
	if len(share) != len(p.Regions) {
		return 0, fmt.Errorf("pte: %d shares for %d regions", len(share), len(p.Regions))
	}
	secs, _, _ := c.FrameWork(fullW, fullH)
	scale := c.CycleEnergyScale
	if scale == 0 {
		scale = 1
	}
	base := baseWattage * (c.ClockHz / PrototypeClockHz) * scale
	datapath := c.PowerW() - base
	mix := 0.0
	for i, s := range share {
		mix += s * FormatEnergyScale(p.Regions[i].Format)
	}
	return secs * (base + datapath*mix), nil
}
