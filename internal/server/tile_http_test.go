package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"evr/internal/codec"
	"evr/internal/delivery"
	"evr/internal/scene"
	"evr/internal/store"
)

// fabricateTiledService extends the fabricated video with tile payloads:
// a 2×1 grid, two rungs, plus the low-res backfill stream.
func fabricateTiledService(t *testing.T, opts ServiceOptions) *Service {
	t.Helper()
	svc := fabricateService(t, opts)
	bits := &codec.Bitstream{Header: codec.Header{W: 8, H: 8, Quality: 4}, Frames: [][]byte{{4, 5}}, Types: []codec.FrameType{codec.IFrame}}
	for tile := 0; tile < 2; tile++ {
		for rung := 0; rung < 2; rung++ {
			payload, err := delivery.MarshalTile(&delivery.TilePayload{Cols: 2, Rows: 1, Tile: tile, Rung: rung, Bits: bits})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.store.Put(Ref{Video: "V", Kind: Tile, Seg: 0, A: tile, B: rung}.StoreKey(), payload, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := svc.store.Put(Ref{Video: "V", Kind: TileLow, Seg: 0}.StoreKey(), segmentOf(t, bits), nil); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestTileHandlerStatusCodes pins the tile surface to the same
// path-hardening contract as the segment endpoints: canonical indices
// only, 404 for resources that don't exist, 400 for smuggled variants
// like 007 and +1 that would otherwise alias cached payloads.
func TestTileHandlerStatusCodes(t *testing.T) {
	svc := fabricateTiledService(t, DefaultServiceOptions())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		path string
		want int
	}{
		{"tile ok", "/v/V/tile/0/0/0", 200},
		{"tile other rung ok", "/v/V/tile/0/1/1", 200},
		{"tilelow ok", "/v/V/tilelow/0", 200},

		{"unknown video tile", "/v/Nope/tile/0/0/0", 404},
		{"missing segment tile", "/v/V/tile/9/0/0", 404},
		{"missing tile index", "/v/V/tile/0/9/0", 404},
		{"missing rung", "/v/V/tile/0/0/9", 404},
		{"unknown video tilelow", "/v/Nope/tilelow/0", 404},

		{"leading-zero tile", "/v/V/tile/0/007/0", 400},
		{"plus-signed tile", "/v/V/tile/0/+1/0", 400},
		{"negative tile", "/v/V/tile/0/-1/0", 400},
		{"exponent tile", "/v/V/tile/0/1e3/0", 400},
		{"leading-zero rung", "/v/V/tile/0/0/00", 400},
		{"leading-zero seg", "/v/V/tile/01/0/0", 400},
		{"non-numeric seg tilelow", "/v/V/tilelow/x", 400},
		{"plus-signed seg tilelow", "/v/V/tilelow/+0", 400},

		{"trailing garbage tile", "/v/V/tile/0/0/0/extra", 404},
		{"smuggled slash tile", "/v/V/tile/0/0%2Fextra/0", 404},
		{"smuggled slash rung", "/v/V/tile/0/0/0%2Fextra", 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
			}
		})
	}
}

// TestTileThrottlingRetryAfter proves admission control covers the tile
// endpoints: with the single in-flight slot held, tile and tilelow
// requests shed with 503 + Retry-After instead of queueing.
func TestTileThrottlingRetryAfter(t *testing.T) {
	opts := DefaultServiceOptions()
	opts.RespCacheBytes = 0
	opts.MaxInFlight = 1
	opts.RetryAfter = 3 * time.Second
	svc := fabricateTiledService(t, opts)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	svc.inflight <- struct{}{} // occupy the only slot
	defer func() { <-svc.inflight }()

	before := svc.Throttled()
	for _, path := range []string{"/v/V/tile/0/0/0", "/v/V/tilelow/0"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s = %d, want 503", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "3" {
			t.Errorf("GET %s Retry-After = %q, want \"3\"", path, got)
		}
	}
	if got := svc.Throttled(); got != before+2 {
		t.Errorf("throttled counter = %d, want %d", got, before+2)
	}
}

// TestTiledIngestRoundTrip runs the real tiled ingest and checks the
// manifest geometry, the stored payload sizes, and that a served tile
// parses back through the wire format with matching coordinates.
func TestTiledIngestRoundTrip(t *testing.T) {
	v, ok := scene.ByName("RS")
	if !ok {
		t.Fatal("scene RS missing")
	}
	cfg := DefaultIngestConfig()
	cfg.MaxSegments = 1
	cfg.Tiled = true
	st := store.New()
	man, err := Ingest(v, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if man.Tiling == nil {
		t.Fatal("tiled ingest produced no Tiling info")
	}
	if man.Tiling.Cols != 4 || man.Tiling.Rows != 2 || man.Tiling.Rungs != 3 || man.Tiling.LowDiv != 4 {
		t.Fatalf("adaptive defaults = %+v for 192x96", man.Tiling)
	}
	// The layout the manifest carries is derived from the frame size alone.
	for _, tc := range []struct {
		w, h int
		want TilingInfo
	}{
		{96, 48, TilingInfo{Cols: 4, Rows: 2, Rungs: 3, LowDiv: 2}},
		{192, 96, TilingInfo{Cols: 4, Rows: 2, Rungs: 3, LowDiv: 4}},
		{320, 160, TilingInfo{Cols: 4, Rows: 2, Rungs: 3, LowDiv: 4}},
		{3840, 1920, TilingInfo{Cols: 4, Rows: 2, Rungs: 3, LowDiv: 4}},
		{16, 8, TilingInfo{Cols: 2, Rows: 1, Rungs: 3, LowDiv: 1}},
		{24, 8, TilingInfo{Cols: 1, Rows: 1, Rungs: 3, LowDiv: 1}},
	} {
		c := DefaultIngestConfig()
		c.FullW, c.FullH, c.Tiled = tc.w, tc.h, true
		if got := baseManifest(v, c).Tiling; got == nil || *got != tc.want {
			t.Errorf("%dx%d tiling = %+v, want %+v", tc.w, tc.h, got, tc.want)
		}
	}
	seg := man.Segments[0]
	if seg.Tiles == nil {
		t.Fatal("segment has no tile info")
	}
	if len(seg.Tiles.TileBytes) != 8 {
		t.Fatalf("tileBytes for %d tiles, want 8", len(seg.Tiles.TileBytes))
	}
	if seg.Tiles.LowBytes <= 0 {
		t.Fatal("backfill stream empty")
	}
	for tile, rungs := range seg.Tiles.TileBytes {
		if len(rungs) != 3 {
			t.Fatalf("tile %d has %d rungs", tile, len(rungs))
		}
		for rung, want := range rungs {
			data, _, ok := st.Get(Ref{Video: v.Name, Kind: Tile, Seg: 0, A: tile, B: rung}.StoreKey())
			if !ok {
				t.Fatalf("tile %d rung %d missing from store", tile, rung)
			}
			if len(data) != want {
				t.Errorf("tile %d rung %d: stored %d bytes, manifest says %d", tile, rung, len(data), want)
			}
			p, err := delivery.UnmarshalTile(data)
			if err != nil {
				t.Fatalf("tile %d rung %d: %v", tile, rung, err)
			}
			if p.Tile != tile || p.Rung != rung || p.Cols != 4 || p.Rows != 2 {
				t.Errorf("tile payload header %+v, want tile %d rung %d on 4x2", p, tile, rung)
			}
			if p.Bits.W != 48 || p.Bits.H != 48 {
				t.Errorf("tile dims %dx%d, want 48x48", p.Bits.W, p.Bits.H)
			}
		}
		// Coarser rungs must not grow the payload for this synthetic scene.
		if rungs[2] >= rungs[0] {
			t.Errorf("tile %d: coarsest rung %dB not below finest %dB", tile, rungs[2], rungs[0])
		}
	}
	// Low stream parses with the plain bitstream format at 1/4 scale.
	lowData, _, ok := st.Get(Ref{Video: v.Name, Kind: TileLow, Seg: 0}.StoreKey())
	if !ok {
		t.Fatal("backfill stream missing from store")
	}
	lowBits, err := UnmarshalBitstream(lowData)
	if err != nil {
		t.Fatal(err)
	}
	if lowBits.W != 48 || lowBits.H != 24 {
		t.Errorf("backfill dims %dx%d, want 48x24", lowBits.W, lowBits.H)
	}
}
