package experiments

import (
	"fmt"

	"evr/internal/client"
	"evr/internal/codec"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/sas"
	"evr/internal/scene"
)

// This file holds the ablation studies DESIGN.md calls out: sweeps over the
// design choices the paper fixes (segment length, pre-render margin, PTU
// count, P-MEM sizing, filter function) plus the beyond-paper extensions.

// ablationEval runs baseline + S+H for one video under a custom SAS config
// and returns (baseline, sh) summaries.
func ablationEval(v scene.VideoSpec, sasCfg sas.Config, users int, ext client.Extensions) (client.Summary, client.Summary) {
	sys := client.NewSystem()
	sys.SASConfig = sasCfg
	if err := sys.Prepare(v); err != nil {
		panic(err)
	}
	cfg := client.DefaultConfig(client.SH, client.OnlineStreaming)
	cfg.Ext = ext
	base, err := sys.Evaluate(v.Name, client.Baseline, client.OnlineStreaming, client.EvaluateOptions{Users: users})
	if err != nil {
		panic(err)
	}
	sh, err := sys.Evaluate(v.Name, client.SH, client.OnlineStreaming, client.EvaluateOptions{Users: users, Config: cfg})
	if err != nil {
		panic(err)
	}
	return base, sh
}

// AblationSegmentLength sweeps the temporal segment (= GOP) length the
// paper statically fixes at 30 frames (§5.3): shorter segments bound the
// miss blast radius, longer ones compress better and re-sync slower.
func AblationSegmentLength(users int) Table {
	t := Table{
		ID:     "Abl 1",
		Title:  "Segment length sweep (paper fixes 30 frames to match the GOP)",
		Header: []string{"frames", "miss rate", "S+H dev saving", "storage", "rebuffers/user"},
		Notes:  []string{"video: Elephant; shorter segments re-sync faster, longer ones stream leaner"},
	}
	v, _ := scene.ByName("Elephant")
	for _, frames := range []int{15, 30, 60} {
		cfg := sas.DefaultConfig()
		cfg.SegmentFrames = frames
		base, sh := ablationEval(v, cfg, users, client.Extensions{})
		plan, _ := sas.BuildPlan(v, cfg)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(frames),
			pct(sh.MissRate()),
			f1(sh.DeviceSavingPct(base)) + "%",
			f2(plan.StorageOverhead()) + "x",
			f1(float64(sh.Rebuffers) / float64(sh.Users)),
		})
	}
	return t
}

// AblationMargin sweeps the pre-rendered FOV margin: wider margins tolerate
// more head motion (fewer misses) but cost pixels in every FOV video.
func AblationMargin(users int) Table {
	t := Table{
		ID:     "Abl 2",
		Title:  "Pre-render margin sweep (FOV video tolerance vs size)",
		Header: []string{"margin", "miss rate", "bandwidth saving", "S+H dev saving", "storage"},
		Notes:  []string{"video: Paris; the shipped design uses 40°"},
	}
	v, _ := scene.ByName("Paris")
	for _, margin := range []float64{20, 30, 40, 60} {
		cfg := sas.DefaultConfig()
		cfg.MarginDeg = margin
		// Wider margins inflate each FOV frame quadratically.
		scale := (110 + margin) / (110 + 40)
		cfg.FOVPixelRatio = 0.72 * scale * scale
		if cfg.FOVPixelRatio > 1 {
			cfg.FOVPixelRatio = 1
		}
		base, sh := ablationEval(v, cfg, users, client.Extensions{})
		plan, _ := sas.BuildPlan(v, cfg)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f°", margin),
			pct(sh.MissRate()),
			f1(sh.BandwidthSavingPct()) + "%",
			f1(sh.DeviceSavingPct(base)) + "%",
			f2(plan.StorageOverhead()) + "x",
		})
	}
	return t
}

// AblationPTUs sweeps the PTU count: the paper instantiates 2 (all the
// FPGA held); an ASIC could scale.
func AblationPTUs() Table {
	t := Table{
		ID:     "Abl 3",
		Title:  "PTU count scaling at 100 MHz (2560×1440 output)",
		Header: []string{"PTUs", "FPS", "power (mW)", "energy/frame (mJ)"},
		Notes: []string{
			"the paper's design goal is energy at real-time rates, not peak FPS (§6.3):",
			"2 PTUs is the energy minimum that still clears 30 FPS — beyond that the DMA",
			"bound (~52 FPS at this traffic) caps throughput while power keeps climbing",
		},
	}
	vp := projection.Viewport{Width: 2560, Height: 1440, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	for _, n := range []int{1, 2, 4, 8} {
		cfg := pte.DefaultConfig(projection.ERP, pt.Bilinear, vp)
		cfg.NumPTUs = n
		secs, _, _ := cfg.FrameWork(3840, 2160)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			f1(cfg.FPS()),
			f1(cfg.PowerW() * 1e3),
			f2(secs * cfg.PowerW() * 1e3),
		})
	}
	return t
}

// AblationPMEM sweeps the P-MEM line-buffer capacity and measures real DRAM
// refill traffic from the cycle-level model.
func AblationPMEM() Table {
	t := Table{
		ID:     "Abl 4",
		Title:  "P-MEM sizing vs DRAM refill traffic (measured on the cycle model)",
		Header: []string{"P-MEM", "line refills", "DRAM read (KiB)", "stall cycles"},
		Notes:  []string{"input 512×256 ERP, 64×64 viewport; the prototype ships 512 KB"},
	}
	v, _ := scene.ByName("RS")
	full := v.RenderFrame(0, projection.ERP, 512, 256)
	vp := projection.Viewport{Width: 64, Height: 64, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	o := geom.Orientation{Yaw: 0.3, Pitch: 0.1}
	for _, size := range []int{8 << 10, 32 << 10, 128 << 10, 512 << 10} {
		cfg := pte.DefaultConfig(projection.ERP, pt.Bilinear, vp)
		cfg.PMEMSize = size
		e, err := pte.New(cfg)
		if err != nil {
			panic(err)
		}
		e.Render(full, o)
		s := e.Stats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d KB", size>>10),
			fmt.Sprint(s.PMEMLineRefills),
			fmt.Sprint(s.DRAMReadBytes >> 10),
			fmt.Sprint(s.StallCycles),
		})
	}
	return t
}

// AblationFilter compares the two filtering functions the PTU supports
// (§6.2): pixel fidelity vs fetch traffic.
func AblationFilter() Table {
	t := Table{
		ID:     "Abl 5",
		Title:  "Filtering function: nearest neighbor vs bilinear",
		Header: []string{"filter", "MAE vs bilinear ref", "fetches/pixel", "refills"},
		Notes:  []string{"bilinear quadruples fetches but the line buffer absorbs the locality"},
	}
	v, _ := scene.ByName("Paris")
	full := v.RenderFrame(0, projection.ERP, 256, 128)
	vp := projection.Viewport{Width: 64, Height: 64, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	o := geom.Orientation{Yaw: -0.4, Pitch: 0.05}
	ref := pt.Render(pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: vp}, full, o)
	for _, flt := range []pt.Filter{pt.Nearest, pt.Bilinear} {
		cfg := pte.DefaultConfig(projection.ERP, flt, vp)
		e, err := pte.New(cfg)
		if err != nil {
			panic(err)
		}
		out := e.Render(full, o)
		s := e.Stats()
		fetches := 1
		if flt == pt.Bilinear {
			fetches = 4
		}
		t.Rows = append(t.Rows, []string{
			flt.String(),
			fmt.Sprintf("%.2e", frame.MAE(out, ref)),
			fmt.Sprint(fetches),
			fmt.Sprint(s.PMEMLineRefills),
		})
	}
	return t
}

// AblationExtensions measures the beyond-paper features against the shipped
// design: predictive FOV-video choice (the paper's §8.2 future work) and
// the display-processor-fused PTE (§6.3 integration alternative).
func AblationExtensions(users int) Table {
	t := Table{
		ID:     "Abl 6",
		Title:  "Beyond-paper extensions vs the shipped S+H design",
		Header: []string{"configuration", "miss rate", "bandwidth saving", "device saving"},
		Notes:  []string{"video: RS (most exploratory, so prediction has the most to win)"},
	}
	v, _ := scene.ByName("RS")
	cases := []struct {
		name string
		ext  client.Extensions
	}{
		{"shipped S+H", client.Extensions{}},
		{"+ predictive choice", client.Extensions{PredictiveChoice: true}},
		{"+ fused PTE", client.Extensions{FusedPTE: true}},
		{"+ both", client.Extensions{PredictiveChoice: true, FusedPTE: true}},
	}
	for _, c := range cases {
		base, sh := ablationEval(v, sas.DefaultConfig(), users, c.ext)
		t.Rows = append(t.Rows, []string{
			c.name,
			pct(sh.MissRate()),
			f1(sh.BandwidthSavingPct()) + "%",
			f1(sh.DeviceSavingPct(base)) + "%",
		})
	}
	return t
}

// RelatedWorkTable contrasts EVR with the view-guided tiled-streaming class
// of related work (§9): tiling is fundamentally a bandwidth optimization —
// the PT still runs on the device GPU every frame, so device energy barely
// moves, while EVR attacks the energy directly.
func RelatedWorkTable(users int) Table {
	t := Table{
		ID:     "Cmp 1",
		Title:  "EVR vs view-guided tiled streaming (related work, §9)",
		Header: []string{"scheme", "bandwidth saving", "device saving", "PT share of cm"},
		Notes: []string{
			"video: Elephant; tiled streaming models the Rubiks/Qian-class schemes:",
			"visible tiles full quality, out-of-sight tiles low quality — bandwidth",
			"drops sharply but the PT tax survives, the paper's core §9 argument;",
			"the byte ratio is grounded by the pixel-exact tiler (internal/tiling:",
			"0.45-0.65 measured, grid-dependent)",
		},
	}
	base := evaluate("Elephant", client.Baseline, client.OnlineStreaming, users)
	tiled := evaluateAt(1.0, "Elephant", client.Tiled, client.OnlineStreaming, users,
		client.DefaultConfig(client.Tiled, client.OnlineStreaming))
	sh := evaluate("Elephant", client.SH, client.OnlineStreaming, users)
	row := func(name string, s client.Summary) []string {
		return []string{
			name,
			f1(s.BandwidthSavingPct()) + "%",
			f1(s.DeviceSavingPct(base)) + "%",
			pct(s.PTShare()),
		}
	}
	t.Rows = append(t.Rows, row("baseline", base), row("tiled streaming", tiled), row("EVR S+H", sh))
	return t
}

// AblationOpBreakdown reports the PTU's per-pixel op counts by projection
// method — the cost structure behind the modular mapping engine of §6.2
// (Fig. 9): ERP pays CORDIC trigonometry, CMP pays dividers, EAC pays both.
func AblationOpBreakdown() Table {
	t := Table{
		ID:     "Abl 7",
		Title:  "PTU per-pixel op breakdown by projection (bilinear, [28, 10])",
		Header: []string{"projection", "persp MACs", "CORDIC rot", "divides", "sqrts", "filter MACs", "fetches"},
		Notes: []string{
			"the shared C2S/C2F blocks of Fig. 9 show up directly: ERP = C2S∘LS,",
			"CMP = LS∘C2F (dividers only), EAC = C2S∘LS∘C2F (both)",
		},
	}
	vp := projection.Viewport{Width: 64, Height: 64, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	for _, m := range projection.Methods {
		ops := pte.PerPixelOps(pte.DefaultConfig(m, pt.Bilinear, vp))
		t.Rows = append(t.Rows, []string{
			m.String(),
			fmt.Sprint(ops.PerspectiveMACs),
			fmt.Sprint(ops.CORDICRotations),
			fmt.Sprint(ops.Divides),
			fmt.Sprint(ops.Sqrts),
			fmt.Sprint(ops.FilterMACs),
			fmt.Sprint(ops.PixelFetches),
		})
	}
	return t
}

// Ablations runs every ablation study and the related-work comparison.
func Ablations(users int) []Table {
	return []Table{
		AblationSegmentLength(users),
		AblationMargin(users),
		AblationPTUs(),
		AblationPMEM(),
		AblationFilter(),
		AblationExtensions(users),
		RelatedWorkTable(users),
		AblationOpBreakdown(),
		QoETable(users),
		PredictionTable(users),
		ABRTable(users),
		LatencyTable(),
		AblationCodecFeatures(),
	}
}

// AblationCodecFeatures measures the codec's optional modes on rendered
// scene content: chroma-aware coding and half-pel motion compensation, the
// two levers real codecs pull that the §5.4 compression asymmetry rests on.
func AblationCodecFeatures() Table {
	t := Table{
		ID:     "Abl 8",
		Title:  "Codec feature ablation (RS, 12 frames at 192×96, quality 6)",
		Header: []string{"configuration", "bytes", "PSNR (dB)", "vs base bytes"},
		Notes: []string{
			"chroma coding spends invisible chroma detail; half-pel motion",
			"tightens prediction on sub-pixel panning",
		},
	}
	v, _ := scene.ByName("RS")
	frames := v.RenderVideo(projection.ERP, 192, 96, 12)
	var baseBytes int
	for _, c := range []struct {
		name string
		cfg  codec.Config
	}{
		{"baseline", codec.Config{GOP: 12, Quality: 6, SearchRange: 3}},
		{"+ chroma coding", codec.Config{GOP: 12, Quality: 6, SearchRange: 3, ChromaCoding: true}},
		{"+ half-pel MC", codec.Config{GOP: 12, Quality: 6, SearchRange: 3, HalfPel: true}},
		{"+ both", codec.Config{GOP: 12, Quality: 6, SearchRange: 3, ChromaCoding: true, HalfPel: true}},
	} {
		bs, err := codec.EncodeSequence(c.cfg, frames)
		if err != nil {
			panic(err)
		}
		decoded, err := codec.DecodeSequence(bs)
		if err != nil {
			panic(err)
		}
		var psnr float64
		for i := range frames {
			psnr += frame.PSNR(frames[i], decoded[i])
		}
		psnr /= float64(len(frames))
		if baseBytes == 0 {
			baseBytes = bs.TotalBytes()
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprint(bs.TotalBytes()),
			f1(psnr),
			fmt.Sprintf("%.0f%%", 100*float64(bs.TotalBytes())/float64(baseBytes)),
		})
	}
	return t
}
