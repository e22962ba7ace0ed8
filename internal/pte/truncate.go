package pte

import (
	"fmt"
	"sort"
	"strings"

	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/pt"
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

// Validate reports whether the plan is usable: at least one region,
// strictly increasing bounds, the last covering 90°, and valid formats.
func (p TruncationPlan) Validate() error {
	if len(p.Regions) == 0 {
		return fmt.Errorf("pte: truncation plan has no regions")
	}
	prev := 0.0
	for i, r := range p.Regions {
		if r.MaxAbsLatDeg <= prev {
			return fmt.Errorf("pte: region %d bound %.1f° not above previous %.1f°", i, r.MaxAbsLatDeg, prev)
		}
		prev = r.MaxAbsLatDeg
		if err := r.Format.Validate(); err != nil {
			return fmt.Errorf("pte: region %d: %w", i, err)
		}
	}
	if p.Regions[len(p.Regions)-1].MaxAbsLatDeg < 90 {
		return fmt.Errorf("pte: plan tops out at %.1f°, must cover 90°", prev)
	}
	return nil
}

// RegionFor returns the index of the region owning the latitude (radians).
func (p TruncationPlan) RegionFor(latRad float64) int {
	deg := geom.Degrees(latRad)
	if deg < 0 {
		deg = -deg
	}
	for i, r := range p.Regions {
		if deg <= r.MaxAbsLatDeg {
			return i
		}
	}
	return len(p.Regions) - 1
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

// PlanRender is the output of RenderPlanned.
type PlanRender struct {
	Frame        *frame.Frame
	RegionPixels []int     // output pixels owned by each region
	RegionShare  []float64 // RegionPixels / total
	EnergyJ      float64   // modeled frame energy under the plan
}

// RenderPlanned runs the fixed-point PT with the per-latitude-region
// format plan: every output pixel is produced by the datapath in its
// region's format (region selection is control logic on the float view
// ray, not part of the datapath). Because the datapath is purely
// per-pixel, the result is bit-exact with rendering the full frame once
// per format and compositing, which is how it is implemented.
func RenderPlanned(cfg Config, plan TruncationPlan, full *frame.Frame, o geom.Orientation) (PlanRender, error) {
	if err := cfg.Validate(); err != nil {
		return PlanRender{}, err
	}
	if err := plan.Validate(); err != nil {
		return PlanRender{}, err
	}
	if err := pt.CheckInput(full); err != nil {
		return PlanRender{}, err
	}
	vp := cfg.Viewport
	region := make([]int, vp.Pixels())
	counts := make([]int, len(plan.Regions))
	for j := 0; j < vp.Height; j++ {
		for i := 0; i < vp.Width; i++ {
			lat := geom.FromCartesian(vp.Ray(o, i, j)).Phi
			r := plan.RegionFor(lat)
			region[j*vp.Width+i] = r
			counts[r]++
		}
	}
	// One engine render per distinct format actually used; regions sharing
	// a format share the render.
	renders := map[fixed.Format]*frame.Frame{}
	var formats []fixed.Format
	for i, r := range plan.Regions {
		if counts[i] == 0 {
			continue
		}
		if _, ok := renders[r.Format]; !ok {
			renders[r.Format] = nil
			formats = append(formats, r.Format)
		}
	}
	sort.Slice(formats, func(a, b int) bool {
		if formats[a].TotalBits != formats[b].TotalBits {
			return formats[a].TotalBits < formats[b].TotalBits
		}
		return formats[a].IntBits < formats[b].IntBits
	})
	for _, f := range formats {
		c := cfg
		c.Format = f
		eng, err := New(c)
		if err != nil {
			return PlanRender{}, err
		}
		if renders[f], err = eng.RenderParallelChecked(full, o, 1); err != nil {
			return PlanRender{}, err
		}
	}
	out := frame.New(vp.Width, vp.Height)
	for p, r := range region {
		src := renders[plan.Regions[r].Format]
		copy(out.Pix[p*3:p*3+3], src.Pix[p*3:p*3+3])
	}
	share := make([]float64, len(plan.Regions))
	total := float64(vp.Pixels())
	for i, n := range counts {
		share[i] = float64(n) / total
	}
	energy, err := plan.PlanFrameEnergyJ(cfg, full.W, full.H, share)
	if err != nil {
		return PlanRender{}, err
	}
	return PlanRender{Frame: out, RegionPixels: counts, RegionShare: share, EnergyJ: energy}, nil
}
