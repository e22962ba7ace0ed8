// Quality assessment: the PTE beyond VR playback (§8.6 / Fig. 17).
//
// A content server scores incoming 360° video in real time: it projects
// each panorama to viewer perspectives (projective transformations) and
// computes PSNR/SSIM against the pristine source. This example runs the
// pixel-exact assessor on a real encode/decode round trip, then prints the
// GPU-vs-PTE pipeline energy comparison across output resolutions.
package main

import (
	"fmt"
	"log"

	"evr/internal/codec"
	"evr/internal/frame"
	"evr/internal/projection"
	"evr/internal/quality"
	"evr/internal/scene"
)

func main() {
	// Produce a genuinely distorted panorama: encode and decode a rendered
	// frame at two quality settings.
	v, _ := scene.ByName("Paris")
	ref := v.RenderFrame(1.0, projection.ERP, 256, 128)
	assessor := quality.NewAssessor(projection.ERP, 64, 64)

	fmt.Println("360° quality assessment on a real codec round trip (Paris, 256x128):")
	for _, q := range []int{2, 8, 24} {
		bs, err := codec.EncodeSequence(codec.Config{GOP: 1, Quality: q, SearchRange: 0}, []*frame.Frame{ref})
		if err != nil {
			log.Fatal(err)
		}
		decoded, err := codec.NewDecoder().Decode(bs, 0)
		if err != nil {
			log.Fatal(err)
		}
		rep := assessor.Assess(ref, decoded)
		fmt.Printf("  quality=%2d  %6.1f KiB  viewport PSNR %5.1f dB  SSIM %.4f\n",
			q, float64(bs.TotalBytes())/1024, rep.MeanPSNR, rep.MeanSSIM)
	}

	fmt.Println("\nFig. 17 — assessment pipeline energy, PT on GPU vs PTE (4K input):")
	fmt.Printf("%-11s  %8s  %8s  %9s\n", "output", "GPU(mJ)", "PTE(mJ)", "reduction")
	for _, res := range [][2]int{{960, 1080}, {1080, 1200}, {1280, 1440}, {1440, 1600}} {
		p := quality.DefaultPipelineEnergy(projection.ERP, res[0], res[1])
		g, e := p.FrameEnergies(3840, 2160)
		fmt.Printf("%4dx%-6d  %8.1f  %8.1f  %8.1f%%\n",
			res[0], res[1], g*1e3, e*1e3, p.ReductionPct(3840, 2160))
	}
	fmt.Println("\nthe reduction shrinks with resolution: the GPU amortizes its fixed")
	fmt.Println("per-batch cost over more pixels — the trend the paper reports")
}
