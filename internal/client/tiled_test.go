package client

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"evr/internal/codec"
	"evr/internal/delivery"
	"evr/internal/frame"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
)

// startTiledTestServer ingests a short slice of a video with tile streams
// enabled and serves it. At 96×48 the adaptive defaults resolve to a 2×2
// grid with a half-resolution backfill stream.
func startTiledTestServer(t *testing.T, video string, segments int) (*httptest.Server, scene.VideoSpec) {
	t.Helper()
	v, ok := scene.ByName(video)
	if !ok {
		t.Fatalf("unknown video %q", video)
	}
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 96, 48
	cfg.FOVW, cfg.FOVH = 32, 32
	cfg.MaxSegments = segments
	cfg.Codec.SearchRange = 1
	cfg.Tiled = true
	svc := server.NewService(store.New())
	if _, err := svc.IngestVideo(v, cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts, v
}

// tiledPlayer is a player with tiled delivery on, optionally pinned to one
// mode.
func tiledPlayer(url string, force delivery.Mode) *Player {
	p := NewPlayer(url)
	p.Fetch = fastFetchConfig()
	p.Tiled = TiledConfig{Enabled: true, Force: force}
	return p
}

// TestTiledPlaybackEndToEnd forces every segment through the tile path and
// checks geometry, accounting, and run-to-run determinism.
func TestTiledPlaybackEndToEnd(t *testing.T) {
	ts, v := startTiledTestServer(t, "RS", 2)
	imu := func() *hmd.IMU { return hmd.NewIMU(headtrace.Generate(v, 0)) }

	p := tiledPlayer(ts.URL, delivery.ModeTiled)
	stats, frames, err := p.Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != 60 {
		t.Fatalf("played %d frames, want 60", stats.Frames)
	}
	if stats.ModeTiledSegments != 2 || stats.ModeFOVSegments != 0 || stats.ModeOrigSegments != 0 {
		t.Errorf("forced tiled gave modes fov=%d tiled=%d orig=%d",
			stats.ModeFOVSegments, stats.ModeTiledSegments, stats.ModeOrigSegments)
	}
	if stats.TiledTiles == 0 {
		t.Error("no tiles fetched in tiled mode")
	}
	if stats.TiledTileErrors != 0 {
		t.Errorf("%d tile errors against a healthy origin", stats.TiledTileErrors)
	}
	// Assembled panoramas are rendered client-side: every frame is a miss.
	if stats.Hits != 0 || stats.Misses != 60 {
		t.Errorf("tiled run hits=%d misses=%d, want 0/60", stats.Hits, stats.Misses)
	}
	if stats.ModeledBytes == 0 || stats.ModeledStartupSec <= 0 {
		t.Errorf("modeled timeline never advanced: %+v", stats)
	}
	vp := headset.ScaledViewport(p.ViewportScale)
	for i, f := range frames {
		if f.W != vp.Width || f.H != vp.Height {
			t.Fatalf("frame %d is %dx%d, want %dx%d", i, f.W, f.H, vp.Width, vp.Height)
		}
	}
	assertAccounting(t, "tiled", stats, frames)

	again, frames2, err := tiledPlayer(ts.URL, delivery.ModeTiled).Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(frames, frames2) {
		t.Error("tiled playback is not deterministic across runs")
	}
	if again.ModeledBytes != stats.ModeledBytes {
		t.Errorf("modeled bytes differ across runs: %d vs %d", stats.ModeledBytes, again.ModeledBytes)
	}
}

// TestTiledPolicyDecidesPerSegment runs the auto policy and checks every
// segment resolves to exactly one mode, and that the tiled plan undercuts
// the full original on modeled wire bytes.
func TestTiledPolicyDecidesPerSegment(t *testing.T) {
	ts, v := startTiledTestServer(t, "RS", 2)
	imu := func() *hmd.IMU { return hmd.NewIMU(headtrace.Generate(v, 0)) }

	stats, frames, err := tiledPlayer(ts.URL, delivery.ModeAuto).Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.ModeFOVSegments + stats.ModeTiledSegments + stats.ModeOrigSegments; got != 2 {
		t.Errorf("mode counters sum to %d, want 2 (one decision per segment)", got)
	}
	assertAccounting(t, "auto policy", stats, frames)

	orig, _, err := tiledPlayer(ts.URL, delivery.ModeOrig).Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tiled, _, err := tiledPlayer(ts.URL, delivery.ModeTiled).Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if tiled.ModeledBytes >= orig.ModeledBytes {
		t.Errorf("tiled modeled bytes %d not below full-orig %d", tiled.ModeledBytes, orig.ModeledBytes)
	}
}

// lostTileHandler permanently fails every request for one tile index —
// the satellite fault-injection shape: a flaky origin that keeps losing
// the same tile.
type lostTileHandler struct {
	inner http.Handler
	lost  *regexp.Regexp
}

func (h *lostTileHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.lost.MatchString(r.URL.Path) {
		http.Error(w, "tile lost", http.StatusInternalServerError)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// TestTiledLostTileBackfillsDeterministically injects a permanently lost
// tile (retries disabled, so every fetch of it fails) and checks the
// player absorbs it: playback completes at full frame count with the lost
// rectangle at backfill quality, no frozen frames, and two runs display
// byte-identical output.
func TestTiledLostTileBackfillsDeterministically(t *testing.T) {
	ts, v := startTiledTestServer(t, "RS", 2)
	// Tile 0 of every segment is unservable: /v/RS/tile/{seg}/0/{rung}.
	flaky := httptest.NewServer(&lostTileHandler{
		inner: proxyTo(t, ts.URL),
		lost:  regexp.MustCompile(`^/v/RS/tile/\d+/0/\d+$`),
	})
	defer flaky.Close()

	imu := func() *hmd.IMU { return hmd.NewIMU(headtrace.Generate(v, 0)) }
	newP := func() *Player {
		p := tiledPlayer(flaky.URL, delivery.ModeTiled)
		p.Fetch.MaxRetries = 0 // the loss is permanent; retries cannot mask it
		p.Resilient = true
		return p
	}
	stats, frames, err := newP().Play("RS", imu(), 2)
	if err != nil {
		t.Fatalf("lost tile aborted playback: %v", err)
	}
	if stats.Frames != 60 {
		t.Fatalf("played %d frames, want 60", stats.Frames)
	}
	if stats.TiledTileErrors == 0 {
		t.Error("no tile errors recorded against a lossy origin")
	}
	if stats.ModeTiledSegments != 2 {
		t.Errorf("tiled segments %d, want 2 — a lost tile must not fail the segment", stats.ModeTiledSegments)
	}
	if stats.FrozenFrames != 0 {
		t.Errorf("%d frozen frames — backfill should have covered the loss", stats.FrozenFrames)
	}
	if stats.PayloadErrors != 0 {
		t.Errorf("%d payload errors — tile loss must be absorbed below segment level", stats.PayloadErrors)
	}
	assertAccounting(t, "lost tile", stats, frames)

	stats2, frames2, err := newP().Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(frames, frames2) {
		t.Error("lost-tile playback is not deterministic across runs")
	}
	if stats2.TiledTileErrors != stats.TiledTileErrors {
		t.Errorf("tile error counts differ across runs: %d vs %d", stats.TiledTileErrors, stats2.TiledTileErrors)
	}

	// A healthy origin keeps the same accounting with zero tile errors.
	ph := tiledPlayer(ts.URL, delivery.ModeTiled)
	ph.Fetch.MaxRetries = 0
	ph.Resilient = true
	healthy, _, err := ph.Play("RS", imu(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.TiledTileErrors != 0 {
		t.Errorf("healthy origin recorded %d tile errors", healthy.TiledTileErrors)
	}
	if stats.Frames != healthy.Frames {
		t.Errorf("lossy run played %d frames, healthy %d", stats.Frames, healthy.Frames)
	}
}

// tileBits unwraps a tile payload's bitstream, aliasing the payload.
func tileBits(body []byte) (*codec.Bitstream, error) {
	p, err := delivery.UnmarshalTile(body)
	if err != nil {
		return nil, err
	}
	return p.Bits, nil
}

// TestTiledCorruptFramesDegradeFromThatFrame zeroes frame 10's coefficients
// in every tile stream, then in every backfill stream, of a forced-tiled
// session. A broken tile leaves its rectangle at backfill quality from frame
// 10 on and never fails the segment, resilient or not; a broken backfill
// plays the rest of the segment from the original, or aborts a player that
// is not resilient. Frames before the break match the healthy run; frames
// after a backfill break match a forced-original run.
func TestTiledCorruptFramesDegradeFromThatFrame(t *testing.T) {
	ts, v := startTiledTestServer(t, "RS", 2)
	imu := func() *hmd.IMU { return hmd.NewIMU(headtrace.Generate(v, 0)) }
	play := func(url string, force delivery.Mode, resilient bool) (PlaybackStats, []*frame.Frame, error) {
		p := tiledPlayer(url, force)
		p.Resilient = resilient
		return p.Play("RS", imu(), 2)
	}
	healthy, healthyFrames, err := play(ts.URL, delivery.ModeTiled, false)
	if err != nil {
		t.Fatal(err)
	}
	_, origFrames, err := play(ts.URL, delivery.ModeOrig, false)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	mangled := func(kind string, unwrap func([]byte) (*codec.Bitstream, error)) string {
		srv := httptest.NewServer(corruptingHandler(proxyTo(t, ts.URL),
			func(p string) bool { return strings.Contains(p, "/"+kind+"/") }, zeroCoefficients(k, unwrap)))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	sameFrames := func(label string, got, want []*frame.Frame, from, to int) {
		t.Helper()
		for seg := 0; seg < 2; seg++ {
			for f := from; f < to; f++ {
				if i := 30*seg + f; !got[i].Equal(want[i]) {
					t.Errorf("%s: frame %d differs", label, i)
				}
			}
		}
	}

	tileURL := mangled("tile", tileBits)
	for _, resilient := range []bool{false, true} {
		st, frames, err := play(tileURL, delivery.ModeTiled, resilient)
		if err != nil {
			t.Fatalf("broken tiles (resilient %v) aborted playback: %v", resilient, err)
		}
		if st.TiledTiles != healthy.TiledTiles || st.TiledTileErrors != healthy.TiledTiles || st.PayloadErrors != 0 ||
			st.ModeTiledSegments != 2 || st.Fallbacks != 0 || st.FrozenFrames != 0 {
			t.Errorf("broken tiles (resilient %v): %+v, want every one of %d tiles counted as a tile error and nothing else",
				resilient, st, healthy.TiledTiles)
		}
		sameFrames("broken tiles", frames, healthyFrames, 0, k)
	}

	lowURL := mangled("tilelow", server.UnmarshalBitstream)
	if _, _, err := play(lowURL, delivery.ModeTiled, false); err == nil || !strings.Contains(err.Error(), "frame 10") {
		t.Errorf("broken backfill, not resilient: err = %v, want an error naming frame 10", err)
	}
	st, frames, err := play(lowURL, delivery.ModeTiled, true)
	if err != nil {
		t.Fatalf("broken backfill aborted a resilient player: %v", err)
	}
	if st.ModeTiledSegments != 2 || st.PayloadErrors != 2 || st.Fallbacks != 2 || st.TiledTileErrors != 0 || st.FrozenFrames != 0 {
		t.Errorf("broken backfill: %+v, want 2 tiled segments, 2 payload errors, 2 fallbacks", st)
	}
	sameFrames("broken backfill, before", frames, healthyFrames, 0, k)
	sameFrames("broken backfill, after", frames, origFrames, k, 30)
}

// TestTiledSessionRejectsShortTileTable: a manifest whose per-segment tile
// size table has fewer rows than the grid has tiles is refused when the
// session is built, not met by an index panic in the rung picker.
func TestTiledSessionRejectsShortTileTable(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cols, rows int
		table      [][]int
	}{
		{"2x2 grid, 1-row table", 2, 2, [][]int{{100}}},
		{"1x1 grid, empty table", 1, 1, [][]int{}},
	} {
		man := &server.Manifest{
			FPS: 30, FullW: 96, FullH: 48, FOVW: 32, FOVH: 32, FOVXDeg: 150, FOVYDeg: 150, SegmentFrames: 30,
			Tiling:   &server.TilingInfo{Cols: tc.cols, Rows: tc.rows, Rungs: 1, LowDiv: 2},
			Segments: []server.SegmentInfo{{Frames: 30, OrigBytes: 1000, Tiles: &server.TileSegInfo{LowBytes: 100, TileBytes: tc.table}}},
		}
		ts, err := newTiledSession(TiledConfig{Enabled: true}, man, 110, 110)
		if err == nil || ts != nil {
			t.Errorf("%s: session built (err %v), want a manifest error", tc.name, err)
		}
	}
}

// TestTiledSessionRejectsZeroRungs: the rung pick needs at least one rung,
// and the count comes from the manifest, which is outside input.
func TestTiledSessionRejectsZeroRungs(t *testing.T) {
	for _, rungs := range []int{0, -1} {
		man := &server.Manifest{
			FPS: 30, FullW: 96, FullH: 48, FOVW: 32, FOVH: 32, FOVXDeg: 150, FOVYDeg: 150, SegmentFrames: 30,
			Tiling:   &server.TilingInfo{Cols: 1, Rows: 1, Rungs: rungs, LowDiv: 2},
			Segments: []server.SegmentInfo{{Frames: 30, OrigBytes: 1000, Tiles: &server.TileSegInfo{LowBytes: 100, TileBytes: [][]int{{100}}}}},
		}
		ts, err := newTiledSession(TiledConfig{Enabled: true}, man, 110, 110)
		if err == nil || ts != nil || !strings.Contains(err.Error(), "rungs") {
			t.Errorf("%d rungs: session built (err %v), want a rung error", rungs, err)
		}
	}
}

// TestTiledSessionBoundsPanorama: the session allocates its assembly canvas
// at the manifest's declared size, so a panorama above maxPanoramaPixels is
// refused first — also when its dimensions' product overflows int, as
// 2³² × 2³¹ does — and Play returns the error instead of panicking.
func TestTiledSessionBoundsPanorama(t *testing.T) {
	manifest := func(w, h int) *server.Manifest {
		return &server.Manifest{
			FPS: 30, FullW: w, FullH: h, FOVW: 32, FOVH: 32, FOVXDeg: 150, FOVYDeg: 150, SegmentFrames: 30,
			Tiling:   &server.TilingInfo{Cols: 1, Rows: 1, Rungs: 1, LowDiv: 2},
			Segments: []server.SegmentInfo{{Frames: 30, OrigBytes: 1000, Tiles: &server.TileSegInfo{LowBytes: 100, TileBytes: [][]int{{100}}}}},
		}
	}
	if ts, err := newTiledSession(TiledConfig{Enabled: true}, manifest(7680, 3840), 110, 110); err != nil || ts == nil {
		t.Fatalf("8K panorama at the bound refused: %v", err)
	}
	for _, dims := range [][2]int{{7680, 3848}, {7688, 3840}, {1 << 32, 1 << 31}, {0, 48}, {96, -48}} {
		ts, err := newTiledSession(TiledConfig{Enabled: true}, manifest(dims[0], dims[1]), 110, 110)
		if err == nil || ts != nil || !strings.Contains(err.Error(), "panorama") {
			t.Errorf("%dx%d panorama: session built (err %v), want a panorama error", dims[0], dims[1], err)
		}
	}

	body, err := json.Marshal(manifest(1<<32, 1<<31))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlayer("http://manifest.test")
	p.HTTP = &http.Client{Transport: manifestOnly(body)}
	p.Tiled.Enabled = true
	if _, _, err := p.Play("RS", hmd.NewIMU(headtrace.Generate(scene.Catalog()[0], 0)), 1); err == nil || !strings.Contains(err.Error(), "panorama") {
		t.Errorf("Play of a 2³²×2³¹ manifest: err = %v, want a panorama error", err)
	}
}
