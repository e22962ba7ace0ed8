package client

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"evr/internal/energy"
	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
)

// testIngestConfig is the test-size ingest: a 96×48 panorama, 32² FOV
// frames and the first segments segments.
func testIngestConfig(segments int) server.IngestConfig {
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 96, 48
	cfg.FOVW, cfg.FOVH = 32, 32
	cfg.MaxSegments = segments
	cfg.Codec.SearchRange = 1
	return cfg
}

// startTestServer ingests a short slice of a video and serves it.
func startTestServer(t *testing.T, video string, segments int) (*httptest.Server, scene.VideoSpec) {
	t.Helper()
	v, ok := scene.ByName(video)
	if !ok {
		t.Fatalf("unknown video %q", video)
	}
	svc := server.NewService(store.New())
	if _, err := svc.IngestVideo(v, testIngestConfig(segments)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts, v
}

func TestEndToEndPlayback(t *testing.T) {
	ts, v := startTestServer(t, "RS", 2)
	p := NewPlayer(ts.URL)
	imu := hmd.NewIMU(headtrace.Generate(v, 0))
	stats, frames, err := p.Play("RS", imu, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != 60 {
		t.Fatalf("played %d frames, want 60", stats.Frames)
	}
	if len(frames) != 60 {
		t.Fatalf("displayed %d frames", len(frames))
	}
	vp := headset.ScaledViewport(p.ViewportScale)
	for i, f := range frames {
		if f.W != vp.Width || f.H != vp.Height {
			t.Fatalf("frame %d is %dx%d, want %dx%d", i, f.W, f.H, vp.Width, vp.Height)
		}
	}
	if stats.Hits == 0 {
		t.Error("no FOV hits — SAS never engaged")
	}
	if stats.BytesFetched == 0 {
		t.Error("no bytes fetched")
	}
	// Displayed frames must not be uniformly black: content flowed through.
	nonZero := 0
	for _, b := range frames[0].Pix {
		if b != 0 {
			nonZero++
		}
	}
	if nonZero < len(frames[0].Pix)/4 {
		t.Error("first displayed frame is mostly black")
	}
}

func TestEndToEndHARvsReference(t *testing.T) {
	ts, v := startTestServer(t, "RS", 1)
	imu := hmd.NewIMU(headtrace.Generate(v, 1))

	har := NewPlayer(ts.URL)
	har.UseHAR = true
	sHar, fHar, err := har.Play("RS", imu, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewPlayer(ts.URL)
	ref.UseHAR = false
	sRef, fRef, err := ref.Play("RS", imu, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sHar.Frames != sRef.Frames {
		t.Fatalf("frame counts differ: %d vs %d", sHar.Frames, sRef.Frames)
	}
	// Same control flow, near-identical pixels (fixed point vs float).
	for i := range fHar {
		if fHar[i].W != fRef[i].W {
			t.Fatal("dimension mismatch")
		}
	}
	if sHar.Hits != sRef.Hits || sHar.Misses != sRef.Misses {
		t.Errorf("QoE differs between HAR and reference: %+v vs %+v", sHar, sRef)
	}
}

// TestEndToEndLUTvsReference pins the player's LUT wiring: with exact-mode
// LUT options, every displayed frame is byte-identical to the reference
// float pipeline's, and fallback renders actually went through the
// mapping-table cache.
func TestEndToEndLUTvsReference(t *testing.T) {
	ts, v := startTestServer(t, "RS", 1)
	imu := hmd.NewIMU(headtrace.Generate(v, 1))

	lut := NewPlayer(ts.URL)
	lut.UseHAR = false
	lut.UseLUT = true
	sLut, fLut, err := lut.Play("RS", imu, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewPlayer(ts.URL)
	ref.UseHAR = false
	sRef, fRef, err := ref.Play("RS", imu, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sLut.Frames != sRef.Frames {
		t.Fatalf("frame counts differ: %d vs %d", sLut.Frames, sRef.Frames)
	}
	for i := range fLut {
		if !fLut[i].Equal(fRef[i]) {
			t.Fatalf("frame %d: exact-mode LUT playback not byte-identical to reference", i)
		}
	}
	if sLut.Misses > 0 && sLut.LUTFrames == 0 {
		t.Error("misses occurred but no frame went through the LUT renderer")
	}
	if sLut.PTEFrames != 0 {
		t.Errorf("LUT player used the PTE %d times", sLut.PTEFrames)
	}
	if lut.LUTCache == nil {
		t.Fatal("player did not retain its LUT cache")
	}
	if st := lut.LUTCache.Stats(); sLut.LUTFrames > 0 && st.Misses == 0 {
		t.Errorf("LUT frames rendered but cache saw no builds: %+v", st)
	}
}

func TestPlayerUnknownVideo(t *testing.T) {
	ts, _ := startTestServer(t, "RS", 1)
	p := NewPlayer(ts.URL)
	if _, _, err := p.Play("Nope", hmd.NewIMU(headtrace.Trace{}), 1); err == nil {
		t.Error("unknown video accepted")
	}
}

// TestLiveStreamPlayback plays a live-mode stream: no FOV videos exist, so
// every frame falls back to PT on the PTE (the §8.3 H-only use-case).
func TestLiveStreamPlayback(t *testing.T) {
	v, _ := scene.ByName("RS")
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 96, 48
	cfg.FOVW, cfg.FOVH = 32, 32
	cfg.MaxSegments = 1
	cfg.Codec.SearchRange = 1
	cfg.LiveMode = true
	svc := server.NewService(store.New())
	if _, err := svc.IngestVideo(v, cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	p := NewPlayer(ts.URL)
	stats, frames, err := p.Play("RS", hmd.NewIMU(headtrace.Generate(v, 0)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != 30 || len(frames) != 30 {
		t.Fatalf("played %d frames", stats.Frames)
	}
	if stats.Hits != 0 {
		t.Errorf("live stream produced %d FOV hits", stats.Hits)
	}
	if stats.PTEFrames != 30 {
		t.Errorf("PTE rendered %d of 30 frames", stats.PTEFrames)
	}
}

// TestPlaybackStatsAddCoversEveryField fills every counter with a distinct
// value and checks Add sums each one, except BehindLiveMaxSec, which keeps
// the larger, and merges the embedded Energy: a counter added to
// PlaybackStats without a line in Add fails here.
func TestPlaybackStatsAddCoversEveryField(t *testing.T) {
	var a, b PlaybackStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	energyType := reflect.TypeOf(Energy{})
	for i := 0; i < va.NumField(); i++ {
		switch va.Field(i).Kind() {
		case reflect.Int, reflect.Int64:
			va.Field(i).SetInt(int64(i + 1))
			vb.Field(i).SetInt(int64(100 * (i + 1)))
		case reflect.Float64:
			va.Field(i).SetFloat(float64(i + 1))
			vb.Field(i).SetFloat(float64(100 * (i + 1)))
		default:
			if va.Field(i).Type() != energyType {
				t.Fatalf("field %s has kind %v: teach Add and this test about it", va.Type().Field(i).Name, va.Field(i).Kind())
			}
		}
	}
	a.Energy, b.Energy = energyOf(1), energyOf(100)
	a.Add(b)
	if a.Energy != energyOf(101) {
		t.Errorf("Energy after Add = %+v, want %+v", a.Energy, energyOf(101))
	}
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		want := float64(101 * (i + 1))
		if name == "BehindLiveMaxSec" {
			want = float64(100 * (i + 1))
		}
		var got float64
		switch f := va.Field(i); {
		case f.Type() == energyType:
			continue
		case f.CanInt():
			got = float64(f.Int())
		default:
			got = f.Float()
		}
		if got != want {
			t.Errorf("%s after Add = %v, want %v", name, got, want)
		}
	}
}

// TestResultAddMergesEnergy: Result.Add merges the ledger, its covered
// time and the PT split, as PlaybackStats.Add does.
func TestResultAddMergesEnergy(t *testing.T) {
	a, b := Result{Energy: energyOf(1)}, Result{Energy: energyOf(100)}
	a.Add(b)
	if a.Energy != energyOf(101) {
		t.Errorf("Energy after Add = %+v, want %+v", a.Energy, energyOf(101))
	}
}

// energyOf charges every ledger component, the covered time and the PT
// split with a distinct multiple of k (exact in float64 for small k).
func energyOf(k float64) Energy {
	var e Energy
	for i, c := range energy.Components {
		e.Ledger.Add(c, k*float64(i+1))
	}
	e.Ledger.AdvanceTime(k)
	e.PTComputeJ, e.PTMemoryJ = 7*k, 8*k
	return e
}

// TestHitToleranceFromManifest: the hit tolerance is half the narrower of
// the manifest's two FOV margins over the HMD's. A manifest that is not
// wider on both axes is refused, and so is one wide enough that a hit could
// turn a viewport corner ray to or past the frame's horizon (90° off its
// axis), where the hit warp's divide is by a value ≤ 0. Play refuses such a
// manifest before it fetches anything.
func TestHitToleranceFromManifest(t *testing.T) {
	h := hmd.OSVRHDK2() // 110°×110°: corner rays 63.7° off the view axis
	for _, tc := range []struct {
		fovX, fovY float64
		tolDeg     float64 // 0: refused
		err        string
	}{
		{150, 150, 20, ""}, // the gated benchmark's geometry
		{150, 130, 10, ""}, // the vertical margin is the narrower
		{130, 170, 10, ""},
		{162, 162, 26, ""},
		{110, 150, 0, "client: manifest FOV 110°×150° not wider than HMD 110°×110°"},
		{150, 100, 0, "client: manifest FOV 150°×100° not wider than HMD 110°×110°"},
		{165, 165, 0, "client: manifest FOV 165°×165° too wide for HMD 110°×110°: a hit may turn a viewport corner 91.2° from the frame's axis"},
		{179, 179, 0, "client: manifest FOV 179°×179° too wide for HMD 110°×110°: a hit may turn a viewport corner 98.2° from the frame's axis"},
	} {
		man := &server.Manifest{FOVXDeg: tc.fovX, FOVYDeg: tc.fovY}
		_, tol, err := hitWarp(man, h, h.ScaledViewport(40))
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("%v°×%v°: err = %v, want %q", tc.fovX, tc.fovY, err, tc.err)
			}
			continue
		}
		if err != nil || math.Abs(geom.Degrees(tol)-tc.tolDeg) > 1e-9 {
			t.Errorf("%v°×%v°: tolerance %v° (err %v), want %v°", tc.fovX, tc.fovY, geom.Degrees(tol), err, tc.tolDeg)
		}
	}

	body, err := json.Marshal(&server.Manifest{Video: "RS", FPS: 30, FullW: 96, FullH: 48, FOVW: 32, FOVH: 32,
		FOVXDeg: 165, FOVYDeg: 165, SegmentFrames: 30, Segments: []server.SegmentInfo{{Frames: 30}}})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlayer("http://manifest.test")
	p.HTTP = &http.Client{Transport: manifestOnly(body)}
	v, _ := scene.ByName("RS")
	if _, _, err := p.Play("RS", hmd.NewIMU(headtrace.Generate(v, 0)), 1); err == nil || !strings.Contains(err.Error(), "too wide for HMD") {
		t.Errorf("Play of a 165° manifest: err = %v, want the too-wide error", err)
	}
}
