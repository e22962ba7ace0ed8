package pte_test

import (
	"fmt"
	"testing"

	"evr/internal/conformance"
	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
)

// pinFrame is an integer-generated panorama (SplitMix64 noise over a coarse
// gradient), so the pins below depend on no float code outside the engine.
func pinFrame(w, h int) *frame.Frame {
	f := frame.New(w, h)
	state := uint64(0x5EED18)
	for i := range f.Pix {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		f.Pix[i] = byte((i/3%w)*128/w) + byte(z>>57)
	}
	return f
}

var pinPoses = []geom.Orientation{
	{Yaw: 0.5, Pitch: -0.2, Roll: 0.4},
	{Yaw: -3.1, Pitch: 1.45},
}

// renderPins holds the FNV-1a checksum of Engine.Render over pinPoses,
// recorded at the commit before the raw-integer fixed-point core (PR 18):
// every projection × filter × format must keep producing those bytes. The
// narrow formats run saturated, the wide ones take the 128-bit paths, and
// [60, 8] both saturates (255 > 2⁷) and widens in the address conversion.
var renderPins = map[string]uint64{
	"ERP/nearest/[12, 6]":   0xaa3f9b33beb58382,
	"ERP/nearest/[24, 10]":  0x3a600ec79845e838,
	"ERP/nearest/[28, 10]":  0xf7f244a994b7f6bc,
	"ERP/nearest/[32, 12]":  0xed4768d72c764840,
	"ERP/nearest/[48, 16]":  0x2a59e562b659cd77,
	"ERP/nearest/[64, 24]":  0x2a59e562b659cd77,
	"ERP/nearest/[60, 8]":   0x96dc38faa8f8d02c,
	"ERP/bilinear/[12, 6]":  0x874f36c2ff783d20,
	"ERP/bilinear/[24, 10]": 0x68b0a38863e3eb48,
	"ERP/bilinear/[28, 10]": 0xfdfb5f0527296fc7,
	"ERP/bilinear/[32, 12]": 0x453bb706dcedcab7,
	"ERP/bilinear/[48, 16]": 0x380922f8ad263db0,
	"ERP/bilinear/[64, 24]": 0x380922f8ad263db0,
	"ERP/bilinear/[60, 8]":  0xbfe9b7b8c44e4f12,
	"CMP/nearest/[12, 6]":   0xdea9f1ee5bd71f6a,
	"CMP/nearest/[24, 10]":  0xd1d036f5bfb83683,
	"CMP/nearest/[28, 10]":  0x0eeb0519987222d5,
	"CMP/nearest/[32, 12]":  0x12958356e67e2600,
	"CMP/nearest/[48, 16]":  0x1a863083e038d3ef,
	"CMP/nearest/[64, 24]":  0x1a863083e038d3ef,
	"CMP/nearest/[60, 8]":   0xdd85f27f1d6700d9,
	"CMP/bilinear/[12, 6]":  0xa49dbffc02a6bd6c,
	"CMP/bilinear/[24, 10]": 0x90b584a04a2f9758,
	"CMP/bilinear/[28, 10]": 0x3344c65c6a0105c6,
	"CMP/bilinear/[32, 12]": 0x34f1c531de34a263,
	"CMP/bilinear/[48, 16]": 0xdb58fb6864bc162d,
	"CMP/bilinear/[64, 24]": 0xdb58fb6864bc162d,
	"CMP/bilinear/[60, 8]":  0x9c1f220fc2e312cd,
	"EAC/nearest/[12, 6]":   0x2371eedb72834014,
	"EAC/nearest/[24, 10]":  0x1cb970903669b643,
	"EAC/nearest/[28, 10]":  0xa31abb21d418c843,
	"EAC/nearest/[32, 12]":  0xf87d70a718bfb247,
	"EAC/nearest/[48, 16]":  0xf87d70a718bfb247,
	"EAC/nearest/[64, 24]":  0xf87d70a718bfb247,
	"EAC/nearest/[60, 8]":   0x8f348674df0bba3a,
	"EAC/bilinear/[12, 6]":  0xce7fac6b2f1b543e,
	"EAC/bilinear/[24, 10]": 0x9ef91d0959e580ef,
	"EAC/bilinear/[28, 10]": 0xe05994b43c0e6fd2,
	"EAC/bilinear/[32, 12]": 0xfc485ecb50c81e0f,
	"EAC/bilinear/[48, 16]": 0x63d901f893cdc699,
	"EAC/bilinear/[64, 24]": 0x63d901f893cdc699,
	"EAC/bilinear/[60, 8]":  0x83a149010b0195c4,
}

func TestRenderPinnedAcrossFormats(t *testing.T) {
	formats := []fixed.Format{{TotalBits: 12, IntBits: 6}, {TotalBits: 24, IntBits: 10}, {TotalBits: 28, IntBits: 10},
		{TotalBits: 32, IntBits: 12}, {TotalBits: 48, IntBits: 16}, {TotalBits: 64, IntBits: 24},
		{TotalBits: 60, IntBits: 8}} // 52 fractional bits: past the address format's 48, so convert widens
	vp := projection.Viewport{Width: 40, Height: 36, FOVX: geom.Radians(105), FOVY: geom.Radians(95)}
	for _, m := range projection.Methods {
		full := pinFrame(96, 48)
		if m != projection.ERP {
			full = pinFrame(96, 64)
		}
		for _, flt := range []pt.Filter{pt.Nearest, pt.Bilinear} {
			for _, f := range formats {
				cfg := pte.DefaultConfig(m, flt, vp)
				cfg.Format = f
				e, err := pte.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sum := uint64(0)
				for _, o := range pinPoses {
					sum = sum*31 + conformance.Checksum(e.Render(full, o))
				}
				key := fmt.Sprintf("%v/%v/%v", m, flt, f)
				if want, ok := renderPins[key]; !ok || sum != want {
					t.Errorf("%q: 0x%016x,", key, sum)
				}
			}
		}
	}
}

// TestStatsPinned pins the cycle / traffic model: the serial scan and every
// banded dispatch must keep charging exactly what they charged before the
// P-MEM model became O(1).
func TestStatsPinned(t *testing.T) {
	full := conformance.InputFrame(projection.ERP)
	vp := projection.Viewport{Width: 64, Height: 64, FOVX: geom.Radians(90), FOVY: geom.Radians(90)}
	cfg := pte.DefaultConfig(projection.ERP, pt.Bilinear, vp)
	cfg.PMEMSize = 24 << 10 // 32 rows of the 256-wide input: bands evict
	o := geom.Orientation{Yaw: 0.5, Pitch: -0.9, Roll: 0.4}
	want := map[int]pte.Stats{ // key 0 is Render
		0: {Frames: 1, OutputPixels: 4096, Cycles: 26928, StallCycles: 24832, DRAMReadBytes: 417792, DRAMWriteBytes: 12288, PMEMLineRefills: 544},
		1: {Frames: 1, OutputPixels: 4096, Cycles: 26928, StallCycles: 24832, DRAMReadBytes: 417792, DRAMWriteBytes: 12288, PMEMLineRefills: 544},
		2: {Frames: 1, OutputPixels: 4096, Cycles: 69360, StallCycles: 67264, DRAMReadBytes: 1096704, DRAMWriteBytes: 12288, PMEMLineRefills: 1428},
		3: {Frames: 1, OutputPixels: 4096, Cycles: 84960, StallCycles: 82864, DRAMReadBytes: 1346304, DRAMWriteBytes: 12288, PMEMLineRefills: 1753},
		4: {Frames: 1, OutputPixels: 4096, Cycles: 87792, StallCycles: 85696, DRAMReadBytes: 1391616, DRAMWriteBytes: 12288, PMEMLineRefills: 1812},
	}
	for workers := 0; workers <= 4; workers++ {
		e, err := pte.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 0 {
			e.Render(full, o)
		} else {
			e.RenderParallel(full, o, workers)
		}
		if got := e.Stats(); got != want[workers] {
			t.Errorf("workers %d: %#v", workers, got)
		}
	}
	statsPinnedTouchOrder(t)
}

// touchOrderPins holds Stats for one serial render and one two-band render
// per projection × filter × P-MEM rows, recorded at commit 2df1a02, before
// the filter resolved its 2×2 stencil once per pixel. With one or two
// resident rows every stencil row touched out of turn is a refill, so these
// pin the order in which the filtering stage touches P-MEM.
var touchOrderPins = map[string][2]pte.Stats{
	"ERP/nearest/1-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 64872, StallCycles: 63864, DRAMReadBytes: 1031424, DRAMWriteBytes: 5760, PMEMLineRefills: 1343},
		{Frames: 1, OutputPixels: 1920, Cycles: 64872, StallCycles: 63864, DRAMReadBytes: 1031424, DRAMWriteBytes: 5760, PMEMLineRefills: 1343}},
	"ERP/nearest/2-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 63000, StallCycles: 61992, DRAMReadBytes: 1001472, DRAMWriteBytes: 5760, PMEMLineRefills: 1304},
		{Frames: 1, OutputPixels: 1920, Cycles: 64872, StallCycles: 63864, DRAMReadBytes: 1031424, DRAMWriteBytes: 5760, PMEMLineRefills: 1343}},
	"ERP/bilinear/1-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 162120, StallCycles: 161112, DRAMReadBytes: 2587392, DRAMWriteBytes: 5760, PMEMLineRefills: 3369},
		{Frames: 1, OutputPixels: 1920, Cycles: 162120, StallCycles: 161112, DRAMReadBytes: 2587392, DRAMWriteBytes: 5760, PMEMLineRefills: 3369}},
	"ERP/bilinear/2-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 107208, StallCycles: 106200, DRAMReadBytes: 1708800, DRAMWriteBytes: 5760, PMEMLineRefills: 2225},
		{Frames: 1, OutputPixels: 1920, Cycles: 162120, StallCycles: 161112, DRAMReadBytes: 2587392, DRAMWriteBytes: 5760, PMEMLineRefills: 3369}},
	"CMP/nearest/1-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 38703, StallCycles: 37695, DRAMReadBytes: 612720, DRAMWriteBytes: 5760, PMEMLineRefills: 851},
		{Frames: 1, OutputPixels: 1920, Cycles: 38703, StallCycles: 37695, DRAMReadBytes: 612720, DRAMWriteBytes: 5760, PMEMLineRefills: 851}},
	"CMP/nearest/2-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 38703, StallCycles: 37695, DRAMReadBytes: 612720, DRAMWriteBytes: 5760, PMEMLineRefills: 851},
		{Frames: 1, OutputPixels: 1920, Cycles: 38703, StallCycles: 37695, DRAMReadBytes: 612720, DRAMWriteBytes: 5760, PMEMLineRefills: 851}},
	"CMP/bilinear/1-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 154713, StallCycles: 153705, DRAMReadBytes: 2468880, DRAMWriteBytes: 5760, PMEMLineRefills: 3429},
		{Frames: 1, OutputPixels: 1920, Cycles: 154713, StallCycles: 153705, DRAMReadBytes: 2468880, DRAMWriteBytes: 5760, PMEMLineRefills: 3429}},
	"CMP/bilinear/2-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 59313, StallCycles: 58305, DRAMReadBytes: 942480, DRAMWriteBytes: 5760, PMEMLineRefills: 1309},
		{Frames: 1, OutputPixels: 1920, Cycles: 154713, StallCycles: 153705, DRAMReadBytes: 2468880, DRAMWriteBytes: 5760, PMEMLineRefills: 3429}},
	"EAC/nearest/1-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 38793, StallCycles: 37785, DRAMReadBytes: 614160, DRAMWriteBytes: 5760, PMEMLineRefills: 853},
		{Frames: 1, OutputPixels: 1920, Cycles: 38793, StallCycles: 37785, DRAMReadBytes: 614160, DRAMWriteBytes: 5760, PMEMLineRefills: 853}},
	"EAC/nearest/2-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 38703, StallCycles: 37695, DRAMReadBytes: 612720, DRAMWriteBytes: 5760, PMEMLineRefills: 851},
		{Frames: 1, OutputPixels: 1920, Cycles: 38793, StallCycles: 37785, DRAMReadBytes: 614160, DRAMWriteBytes: 5760, PMEMLineRefills: 853}},
	"EAC/bilinear/1-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 152373, StallCycles: 151365, DRAMReadBytes: 2431440, DRAMWriteBytes: 5760, PMEMLineRefills: 3377},
		{Frames: 1, OutputPixels: 1920, Cycles: 152373, StallCycles: 151365, DRAMReadBytes: 2431440, DRAMWriteBytes: 5760, PMEMLineRefills: 3377}},
	"EAC/bilinear/2-row": {
		{Frames: 1, OutputPixels: 1920, Cycles: 56703, StallCycles: 55695, DRAMReadBytes: 900720, DRAMWriteBytes: 5760, PMEMLineRefills: 1251},
		{Frames: 1, OutputPixels: 1920, Cycles: 152373, StallCycles: 151365, DRAMReadBytes: 2431440, DRAMWriteBytes: 5760, PMEMLineRefills: 3377}},
}

func statsPinnedTouchOrder(t *testing.T) {
	vp := projection.Viewport{Width: 48, Height: 40, FOVX: geom.Radians(100), FOVY: geom.Radians(90)}
	o := geom.Orientation{Yaw: 3.0, Pitch: 1.2, Roll: 0.3} // the view crosses the ERP seam and the pole rows
	for _, m := range projection.Methods {
		full := conformance.InputFrame(m)
		for _, flt := range []pt.Filter{pt.Nearest, pt.Bilinear} {
			for _, rows := range []int{1, 2} {
				var got [2]pte.Stats
				for i, workers := range []int{1, 2} {
					cfg := pte.DefaultConfig(m, flt, vp)
					cfg.PMEMSize = rows * full.W * 3
					e, err := pte.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					e.RenderParallel(full, o, workers)
					got[i] = e.Stats()
				}
				key := fmt.Sprintf("%v/%v/%d-row", m, flt, rows)
				if want, ok := touchOrderPins[key]; !ok || got != want {
					t.Errorf("%s: %#v", key, got)
				}
			}
		}
	}
}
