package client_test

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"evr/internal/client"
	"evr/internal/energy"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
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

// TestPlayPricesDecodeForLoadedPayloadsOnly plays RS sessions whose prefetch
// guess is wrong somewhere — the FOV video warmed for a next segment is not
// the one its decision plays — with prefetch on and off. The mis-guessed
// video is received, so the radio prices every byte of it, but no reader
// loads it, so the codec prices none: the two sessions' compute ledgers
// agree. A replay on the prefetch-off player receives only the manifest and
// loads every payload from the cache, so it prices the same decode.
func TestPlayPricesDecodeForLoadedPayloadsOnly(t *testing.T) {
	const segments = 3
	v, _ := scene.ByName("RS")
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 96, 48
	cfg.FOVW, cfg.FOVH = 32, 32
	cfg.MaxSegments = segments
	cfg.Codec.SearchRange = 1
	svc := server.NewService(store.New())
	if _, err := svc.IngestVideo(v, cfg); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fovs := map[server.Ref]bool{} // FOV videos served since the last play
	mux := svc.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ref, err := server.ParseRefPath(r.URL.Path); err == nil && ref.Kind == server.FOV {
			mu.Lock()
			fovs[ref] = true
			mu.Unlock()
		}
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()
	dev := energy.TX2()
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	play := func(p *client.Player, u int) (client.PlaybackStats, int) {
		t.Helper()
		stats, _, err := p.Play(v.Name, hmd.NewIMU(headtrace.Generate(v, u)), segments)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		n := len(fovs)
		clear(fovs)
		return stats, n
	}

	wrong := 0
	for u := 0; u < 6; u++ {
		pOff := client.NewPlayer(ts.URL)
		pOff.Fetch.Prefetch = false
		on, onFOVs := play(client.NewPlayer(ts.URL), u)
		off, offFOVs := play(pOff, u)
		replay, _ := play(pOff, u)
		if on.Hits != off.Hits || on.Misses != off.Misses || replay.Hits != off.Hits {
			t.Fatalf("user %d: hits %d/%d/%d, misses %d/%d: prefetch and cache changed a decision", u, on.Hits, off.Hits, replay.Hits, on.Misses, off.Misses)
		}
		for _, s := range []client.PlaybackStats{on, off, replay} {
			idle := float64(s.Frames) * dev.NetIdleW / 30
			if got, want := s.Ledger.Joules(energy.Network), float64(s.BytesFetched)*dev.NetJPerByte+idle; !near(got, want) {
				t.Errorf("user %d: network %.9g J, want %d B received: %.9g J", u, got, s.BytesFetched, want)
			}
		}
		if got, want := replay.Ledger.Joules(energy.Compute), off.Ledger.Joules(energy.Compute); replay.BytesFetched >= off.BytesFetched/2 || !near(got, want) {
			t.Errorf("user %d: replay of %d B priced compute %.9g J, the first play of %d B %.9g J", u, replay.BytesFetched, got, off.BytesFetched, want)
		}
		if onFOVs == offFOVs {
			continue // every guess was right
		}
		wrong++
		if on.BytesFetched <= off.BytesFetched {
			t.Errorf("user %d: %d FOV videos received with prefetch, %d without, but %d B ≤ %d B", u, onFOVs, offFOVs, on.BytesFetched, off.BytesFetched)
		}
		if got, want := on.Ledger.Joules(energy.Compute), off.Ledger.Joules(energy.Compute); !near(got, want) {
			t.Errorf("user %d: compute %.9g J with %d unread B prefetched, %.9g J without: unread bytes priced as decoded",
				u, got, on.BytesFetched-off.BytesFetched, want)
		}
	}
	t.Logf("%d of 6 users' sessions prefetched a FOV video they did not play", wrong)
	if wrong == 0 {
		t.Fatal("no user's prefetch guess was wrong: the test exercises nothing")
	}
}
