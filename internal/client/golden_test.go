package client_test

import (
	"net/http/httptest"
	"testing"

	"evr/internal/client"
	"evr/internal/delivery"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/loadgen"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
)

// goldenSpec is a fixed tiny video for the end-to-end golden playback
// test. Changing it (or the ingest config, trace generator, or render
// path) legitimately moves the pinned numbers below; anything else that
// moves them is a correctness regression in the serving or playback path.
func goldenSpec() scene.VideoSpec {
	return scene.VideoSpec{
		Name:     "GOLD",
		Duration: 2,
		FPS:      30,
		Objects: []scene.ObjectSpec{{
			ID: 0, BaseYaw: 0.4, BasePitch: -0.1, DriftYaw: 0.15,
			AmpPitch: 0.2, FreqPitch: 1.1,
			Radius: 0.3, Color: [3]byte{40, 200, 120},
		}},
		Complexity: 0.4,
	}
}

func goldenServer(t *testing.T, opts server.ServiceOptions) *httptest.Server {
	t.Helper()
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 96, 48
	cfg.FOVW, cfg.FOVH = 32, 32
	cfg.MaxSegments = 2
	cfg.Codec.SearchRange = 1
	// A 5°-per-side margin over the 110° HMD viewport makes gaze jitter
	// and pursuit lag produce genuine FOV misses, so the golden run pins
	// both the hit and fallback paths.
	cfg.FOVXDeg, cfg.FOVYDeg = 120, 120
	svc := server.NewServiceOpts(store.New(), opts)
	if _, err := svc.IngestVideo(goldenSpec(), cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestGoldenPlaybackAcrossCacheConfigs plays the same user trace through
// every cache configuration on both sides of the wire and demands
// byte-identical displayed frames and an identical, pinned FOV-hit count.
// Caches are allowed to change *when* bytes move, never *which* pixels the
// user sees.
func TestGoldenPlaybackAcrossCacheConfigs(t *testing.T) {
	respcacheOff := server.DefaultServiceOptions()
	respcacheOff.RespCacheBytes = 0

	cases := []struct {
		name        string
		server      server.ServiceOptions
		clientCache bool
	}{
		{"clientcache+respcache", server.DefaultServiceOptions(), true},
		{"clientcache-only", respcacheOff, true},
		{"respcache-only", server.DefaultServiceOptions(), false},
		{"no-caches", respcacheOff, false},
	}

	type outcome struct {
		name     string
		hits     int
		frames   int
		checksum uint64
	}
	var outcomes []outcome
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := goldenServer(t, tc.server)
			p := client.NewPlayer(ts.URL)
			if !tc.clientCache {
				p.Fetch.CacheSegments = 0
				p.Fetch.Prefetch = false
			}
			imu := hmd.NewIMU(headtrace.Generate(goldenSpec(), 0))
			stats, frames, err := p.Play("GOLD", imu, 2)
			if err != nil {
				t.Fatal(err)
			}
			// Warm caches and replay: the second pass must not change pixels.
			imu = hmd.NewIMU(headtrace.Generate(goldenSpec(), 0))
			stats2, frames2, err := p.Play("GOLD", imu, 2)
			if err != nil {
				t.Fatal(err)
			}
			sum, sum2 := loadgen.ChecksumFrames(frames), loadgen.ChecksumFrames(frames2)
			if sum != sum2 {
				t.Errorf("warm replay changed frames: %#x vs %#x", sum, sum2)
			}
			if stats2.Hits != stats.Hits {
				t.Errorf("warm replay changed FOV hits: %d vs %d", stats2.Hits, stats.Hits)
			}
			outcomes = append(outcomes, outcome{tc.name, stats.Hits, stats.Frames, sum})
		})
	}

	if len(outcomes) != len(cases) {
		t.Fatalf("only %d/%d configs completed", len(outcomes), len(cases))
	}
	base := outcomes[0]
	for _, o := range outcomes[1:] {
		if o.checksum != base.checksum {
			t.Errorf("%s frames differ from %s: %#x vs %#x", o.name, base.name, o.checksum, base.checksum)
		}
		if o.hits != base.hits || o.frames != base.frames {
			t.Errorf("%s stats differ from %s: %d/%d hits vs %d/%d", o.name, base.name, o.hits, o.frames, base.hits, base.frames)
		}
	}

	// Pinned golden numbers for this spec + trace + ingest config, recorded
	// when segments were still decoded whole at fetch time. The one miss is
	// frame 59: original frame 29 of segment 1, the deepest seek into a
	// P-chain that on-demand decoding makes.
	const wantFrames, wantHits = 60, 59
	const wantChecksum = 0xc453f3326c981304
	if base.checksum != wantChecksum {
		t.Errorf("checksum %#x, want pinned %#x", base.checksum, uint64(wantChecksum))
	}
	if base.frames != wantFrames {
		t.Errorf("played %d frames, want pinned %d", base.frames, wantFrames)
	}
	if base.hits != wantHits {
		t.Errorf("FOV hits = %d, want pinned %d", base.hits, wantHits)
	}
}

// TestPlaybackPinned pins the classic paths end to end at the default
// 192×96 ingest, RS user 0, two segments, at the checksums recorded when
// segments were still decoded whole at fetch time: FOV hits cropped by the
// display processor, and — under live ingest, which makes no FOV videos —
// every frame decoded from the original and rendered by the float pipeline.
func TestPlaybackPinned(t *testing.T) {
	v, _ := scene.ByName("RS")
	for _, tc := range []struct {
		name     string
		live     bool
		checksum uint64
		hits     int
	}{
		{"fov", false, 0x43bd0e6008cca166, 60},
		{"live-orig-float", true, 0x9e7ad06b36b9f88c, 0},
	} {
		cfg := server.DefaultIngestConfig()
		cfg.MaxSegments = 2
		cfg.LiveMode = tc.live
		svc := server.NewService(store.New())
		if _, err := svc.IngestVideo(v, cfg); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		p := client.NewPlayer(ts.URL)
		p.UseHAR = !tc.live
		stats, frames, err := p.Play("RS", hmd.NewIMU(headtrace.Generate(v, 0)), 2)
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := loadgen.ChecksumFrames(frames); got != tc.checksum {
			t.Errorf("%s: checksum %#x, want pinned %#x", tc.name, got, tc.checksum)
		}
		if stats.Frames != 60 || stats.Hits != tc.hits {
			t.Errorf("%s: %d frames, %d hits, want 60, %d", tc.name, stats.Frames, stats.Hits, tc.hits)
		}
	}
}

// TestTiledPlaybackPinned pins tiled delivery end to end at the default
// 192×96 ingest: a forced-tiled and an auto-policy session of RS user 0
// display exactly these frames. The tile layout the server derives, the
// 10° fetch margin, the linear predictor and the default policy all feed
// the checksums, so a change to any of them moves these pins.
func TestTiledPlaybackPinned(t *testing.T) {
	v, _ := scene.ByName("RS")
	cfg := server.DefaultIngestConfig()
	cfg.MaxSegments = 2
	cfg.Tiled = true
	svc := server.NewService(store.New())
	if _, err := svc.IngestVideo(v, cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		force    delivery.Mode
		checksum uint64
		fov      int // segments the policy sent as the FOV stream
		tiled    int
	}{
		{delivery.ModeTiled, 0x782f967c948509b6, 0, 2},
		{delivery.ModeAuto, 0x1d7c44f64c2f0ce5, 1, 1},
	}
	for _, tc := range cases {
		p := client.NewPlayer(ts.URL)
		p.Tiled = client.TiledConfig{Enabled: true, Force: tc.force}
		stats, frames, err := p.Play("RS", hmd.NewIMU(headtrace.Generate(v, 0)), 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := loadgen.ChecksumFrames(frames); got != tc.checksum {
			t.Errorf("%v: checksum %#x, want pinned %#x", tc.force, got, tc.checksum)
		}
		if stats.Frames != 60 || stats.ModeFOVSegments != tc.fov || stats.ModeTiledSegments != tc.tiled {
			t.Errorf("%v: %d frames, fov/tiled segments %d/%d, want 60, %d/%d",
				tc.force, stats.Frames, stats.ModeFOVSegments, stats.ModeTiledSegments, tc.fov, tc.tiled)
		}
	}
}
