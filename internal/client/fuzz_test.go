package client

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
)

// manifestOnly is a transport that serves one manifest body at the RS
// manifest path and 404 at every other path.
type manifestOnly []byte

func (m manifestOnly) RoundTrip(r *http.Request) (*http.Response, error) {
	resp := &http.Response{StatusCode: http.StatusNotFound, Status: "404 Not Found", Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(nil)), Request: r}
	if r.URL.Path == "/v/RS/manifest" {
		resp.StatusCode, resp.Status = http.StatusOK, "200 OK"
		resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(m)), int64(len(m))
	}
	return resp, nil
}

// FuzzPlayManifest plays two segments of a fuzzed manifest with a resilient
// player, tiled delivery on and off. No payload exists, so every segment
// degrades to frozen frames: Play must return them, or an error, and never
// panic. The seeds are a classic and a tiled manifest from real ingests,
// and a tiled manifest declaring an oversized panorama.
func FuzzPlayManifest(f *testing.F) {
	v, _ := scene.ByName("RS")
	for _, tiled := range []bool{false, true} {
		cfg := server.DefaultIngestConfig()
		cfg.FullW, cfg.FullH = 96, 48
		cfg.FOVW, cfg.FOVH = 32, 32
		cfg.MaxSegments = 2
		cfg.Codec.SearchRange = 1
		cfg.Tiled = tiled
		svc := server.NewService(store.New())
		if _, err := svc.IngestVideo(v, cfg); err != nil {
			f.Fatal(err)
		}
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v/RS/manifest", nil))
		f.Add(rec.Body.Bytes())
	}
	// A tiled manifest declaring a grid-valid 2³² × 2³¹ panorama: refused
	// by the panorama bound, where it once reached the canvas allocation.
	f.Add([]byte(`{"video":"RS","fps":30,"fullW":4294967296,"fullH":2147483648,"fovW":32,"fovH":32,` +
		`"fovXDeg":150,"fovYDeg":150,` +
		`"segmentFrames":30,"tiling":{"cols":1,"rows":1,"rungs":1,"lowDiv":2},` +
		`"segments":[{"index":0,"frames":30,"tiles":{"lowBytes":100,"tileBytes":[[100]]}}]}`))
	trace := headtrace.Generate(v, 0)
	f.Fuzz(func(t *testing.T, manifest []byte) {
		for _, tiled := range []bool{false, true} {
			p := NewPlayer("http://manifest.test")
			p.HTTP = &http.Client{Transport: manifestOnly(manifest)}
			p.Fetch = fastFetchConfig()
			p.Resilient = true
			p.Tiled.Enabled = tiled
			stats, frames, err := p.Play("RS", hmd.NewIMU(trace), 2)
			if err == nil && (len(frames) != stats.Frames || stats.Hits+stats.Misses != stats.Frames) {
				t.Fatalf("tiled %v: %d frames displayed, stats %+v", tiled, len(frames), stats)
			}
		}
	})
}
