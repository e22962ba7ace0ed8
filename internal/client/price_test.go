package client_test

import (
	"math"
	"testing"

	"evr/internal/client"
	"evr/internal/energy"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/server"
)

// TestPlayChargesThePriceList plays GOLD user 0 with HAR and with the float
// pipeline and reads the real player's ledger against the price list: the
// panel per displayed frame, the radio per received byte plus its idle
// floor, and PT compute per rendered frame at the nominal geometry (the
// PTE's frame price with HAR, one GPU frame of the HMD's full viewport
// without). Both sessions make the same hit decisions, so the float
// session's PT compute exceeds HAR's: the paper's H saving.
func TestPlayChargesThePriceList(t *testing.T) {
	ts := goldenServer(t, server.DefaultServiceOptions())
	dev := energy.TX2()
	hdk := hmd.OSVRHDK2()
	pteFrameJ := pte.DefaultConfig(projection.ERP, pt.Bilinear, hdk.Viewport()).FrameEnergyJ(3840, 2160)
	gpuFrameJ := energy.GPUFrameJ(2560 * 1440)

	play := func(har bool) client.PlaybackStats {
		t.Helper()
		p := client.NewPlayer(ts.URL)
		p.UseHAR = har
		stats, _, err := p.Play("GOLD", hmd.NewIMU(headtrace.Generate(goldenSpec(), 0)), 2)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }

	har, float := play(true), play(false)
	for _, tc := range []struct {
		name  string
		stats client.PlaybackStats
		ptJ   float64 // the PT compute the session's renders must cost
	}{
		{"har", har, float64(har.PTEFrames) * pteFrameJ},
		{"float", float, float64(float.Misses-float.FrozenFrames) * gpuFrameJ},
	} {
		s := tc.stats
		if s.Frames == 0 || s.Hits == 0 || s.Misses == 0 {
			t.Fatalf("%s: %d frames, %d hits, %d misses: GOLD user 0 must exercise both paths", tc.name, s.Frames, s.Hits, s.Misses)
		}
		if got, want := s.Ledger.Joules(energy.Display), float64(s.Frames)*dev.DisplayPowerW/30; !near(got, want) {
			t.Errorf("%s: display %.9g J, want %d frames × %.2f W / 30 = %.9g J", tc.name, got, s.Frames, dev.DisplayPowerW, want)
		}
		idle := float64(s.Frames) * dev.NetIdleW / 30
		if got, want := s.Ledger.Joules(energy.Network), float64(s.BytesFetched)*dev.NetJPerByte+idle; !near(got, want) {
			t.Errorf("%s: network %.9g J, want %d B × %g J/B + %.9g J idle = %.9g J", tc.name, got, s.BytesFetched, dev.NetJPerByte, idle, want)
		}
		if tc.ptJ == 0 || !near(s.PTComputeJ, tc.ptJ) {
			t.Errorf("%s: PT compute %.9g J, want %.9g J", tc.name, s.PTComputeJ, tc.ptJ)
		}
		if s.PTComputeJ >= s.Ledger.Joules(energy.Compute) || s.PTMemoryJ >= s.Ledger.Joules(energy.Memory) {
			t.Errorf("%s: PT split %.4g / %.4g J not inside compute %.4g / memory %.4g J", tc.name,
				s.PTComputeJ, s.PTMemoryJ, s.Ledger.Joules(energy.Compute), s.Ledger.Joules(energy.Memory))
		}
	}
	if har.Hits != float.Hits || har.Misses != float.Misses || har.PTEFrames != float.Misses-float.FrozenFrames {
		t.Errorf("HAR and float sessions differ: hits %d/%d, misses %d/%d, PTE frames %d", har.Hits, float.Hits, har.Misses, float.Misses, har.PTEFrames)
	}
	if float.PTComputeJ <= har.PTComputeJ {
		t.Errorf("float PT compute %.4g J not above HAR's %.4g J for the same frames", float.PTComputeJ, har.PTComputeJ)
	}
}
