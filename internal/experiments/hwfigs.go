package experiments

import (
	"fmt"
	"math"

	"evr/internal/energy"
	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/quality"
)

// fig11Frame builds the smooth test panorama used for the precision sweep.
func fig11Frame(w, h int) *frame.Frame {
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := byte(128 + 100*math.Sin(2*math.Pi*float64(x)/float64(w)))
			g := byte(128 + 100*math.Cos(math.Pi*float64(y)/float64(h)))
			b := byte((x + y) * 255 / (w + h))
			f.Set(x, y, r, g, b)
		}
	}
	return f
}

// Fig11 reproduces the fixed-point design-space sweep (§6.3): average pixel
// error of the PTE output vs the full-precision reference, across total
// bitwidth and integer-bit share. The paper's acceptable-error threshold is
// 1e-3 and its chosen design point is [28, 10].
func Fig11() Table {
	t := Table{
		ID:     "Fig 11",
		Title:  "PTE fixed-point pixel error vs bitwidth and integer share (MAE)",
		Header: []string{"bits", "int 10%", "int 20%", "int 30%", "int 40%", "int 50%"},
		Notes: []string{
			"paper: errors below 1e-3 are visually indistinguishable; [28, 10] chosen",
			fmt.Sprintf("[28, 10] measured MAE: %.2e", Fig11Point(fixed.Q2810)),
		},
	}
	full := fig11Frame(256, 128)
	o := geom.Orientation{Yaw: geom.Radians(30), Pitch: geom.Radians(-10)}
	vp := projection.Viewport{Width: 48, Height: 48, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	ref := pt.Render(pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: vp}, full, o)
	for _, bits := range []int{24, 28, 32, 40, 48, 56, 64} {
		row := []string{fmt.Sprint(bits)}
		for _, share := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
			ib := int(math.Round(float64(bits) * share))
			if ib < 1 {
				ib = 1
			}
			f := fixed.Format{TotalBits: bits, IntBits: ib}
			cfg := pte.DefaultConfig(projection.ERP, pt.Bilinear, vp)
			cfg.Format = f
			e, err := pte.New(cfg)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, fmt.Sprintf("%.1e", frame.MAE(e.Render(full, o), ref)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig11Point measures the MAE of one fixed-point format against the float
// reference on the standard sweep scene.
func Fig11Point(f fixed.Format) float64 {
	full := fig11Frame(256, 128)
	o := geom.Orientation{Yaw: geom.Radians(30), Pitch: geom.Radians(-10)}
	vp := projection.Viewport{Width: 48, Height: 48, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	ref := pt.Render(pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: vp}, full, o)
	cfg := pte.DefaultConfig(projection.ERP, pt.Bilinear, vp)
	cfg.Format = f
	e, err := pte.New(cfg)
	if err != nil {
		return math.Inf(1)
	}
	return frame.MAE(e.Render(full, o), ref)
}

// Fig17 reproduces the quality-assessment energy comparison (§8.6): PTE
// energy reduction over a GPU pipeline across output resolutions and
// projection methods.
func Fig17() Table {
	t := Table{
		ID:     "Fig 17",
		Title:  "360° quality assessment: PTE energy reduction over the GPU pipeline",
		Header: []string{"resolution", "ERP", "CMP", "EAC"},
		Notes: []string{
			"paper: up to 40% reduction, shrinking as resolution grows",
			"(the GPU amortizes its fixed per-batch cost over more pixels)",
		},
	}
	for _, res := range [][2]int{{960, 1080}, {1080, 1200}, {1280, 1440}, {1440, 1600}} {
		row := []string{fmt.Sprintf("%dx%d", res[0], res[1])}
		for _, m := range projection.Methods {
			p := quality.DefaultPipelineEnergy(m, res[0], res[1])
			row = append(row, f1(p.ReductionPct(3840, 2160))+"%")
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// PrototypeTable reports the PTE prototype parameters (§7.2), alongside
// the ASIC projection the paper calls its results a lower bound for.
func PrototypeTable() Table {
	vp := projection.Viewport{Width: 2560, Height: 1440, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	row := func(name string, cfg pte.Config) []string {
		return []string{
			name,
			fmt.Sprint(cfg.NumPTUs),
			fmt.Sprintf("%.0f MHz", cfg.ClockHz/1e6),
			fmt.Sprintf("%.0f mW", cfg.PowerW()*1e3),
			fmt.Sprintf("%d KB", cfg.PMEMSize>>10),
			fmt.Sprintf("%d KB", cfg.SMEMSize>>10),
			f1(cfg.FPS()),
			fmt.Sprintf("%.0fx lower", energy.GPUActivePowerW/cfg.PowerW()),
		}
	}
	return Table{
		ID:    "§7.2",
		Title: "PTE prototype configuration and throughput",
		Header: []string{
			"flow", "PTUs", "clock", "power", "P-MEM", "S-MEM", "FPS@2560x1440", "vs GPU power",
		},
		Rows: [][]string{
			row("FPGA (paper)", pte.DefaultConfig(projection.ERP, pt.Bilinear, vp)),
			row("ASIC proj.", pte.ASICConfig(projection.ERP, pt.Bilinear, vp)),
		},
		Notes: []string{
			"paper: 2 PTUs at 100 MHz draw 194 mW and sustain 50 FPS — an order of",
			"magnitude below a mobile GPU; \"the results should be seen as lower-bounds",
			"as an ASIC flow would yield better energy-efficiency\" (§7.2) — modeled",
			"here as 4x clock at 0.35x energy/cycle",
		},
	}
}

// All runs every experiment at the given user-population size and returns
// the tables in paper order.
func All(users int) []Table {
	return []Table{
		Fig3a(users), Fig3b(users),
		Fig5(users), Fig6(users),
		Fig11(),
		Fig12(users), Fig13(users), Fig14(users), Fig15(users), Fig16(users),
		Fig17(),
		PrototypeTable(), MissRateTable(users),
	}
}
