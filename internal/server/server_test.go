package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"evr/internal/codec"
	"evr/internal/frame"
	"evr/internal/scene"
	"evr/internal/store"
)

// smallIngest returns a fast test-scale config: 2 segments at 96×48.
// stored reports whether st holds key.
func stored(st *store.Store, key string) bool {
	_, _, ok := st.Get(key)
	return ok
}

func smallIngest() IngestConfig {
	cfg := DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 96, 48
	cfg.FOVW, cfg.FOVH = 32, 32
	cfg.MaxSegments = 2
	cfg.Codec.SearchRange = 1
	return cfg
}

func TestIngestConfigValidate(t *testing.T) {
	if err := DefaultIngestConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultIngestConfig()
	bad.FullW = 100 // not a multiple of 8
	if err := bad.Validate(); err == nil {
		t.Error("non-block-aligned width accepted")
	}
	bad = DefaultIngestConfig()
	bad.MaxSegments = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative MaxSegments accepted")
	}
	bad = DefaultIngestConfig()
	bad.FOVXDeg = 200
	if err := bad.Validate(); err == nil {
		t.Error("FOV over 180° accepted")
	}
}

func TestIngestProducesSegmentsAndFOVVideos(t *testing.T) {
	v, _ := scene.ByName("RS")
	st := store.New()
	man, err := Ingest(v, smallIngest(), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 2 {
		t.Fatalf("manifest has %d segments, want 2", len(man.Segments))
	}
	for _, seg := range man.Segments {
		if seg.Frames != 30 {
			t.Errorf("segment %d has %d frames", seg.Index, seg.Frames)
		}
		if seg.OrigBytes <= 0 {
			t.Errorf("segment %d has no original payload", seg.Index)
		}
		if len(seg.Clusters) == 0 {
			t.Errorf("segment %d detected no object clusters", seg.Index)
		}
		if !stored(st, Ref{Video: "RS", Kind: Orig, Seg: seg.Index}.StoreKey()) {
			t.Errorf("original segment %d missing from store", seg.Index)
		}
		for _, cl := range seg.Clusters {
			if len(cl.Meta) != seg.Frames {
				t.Errorf("cluster %d metadata has %d entries, want %d", cl.ID, len(cl.Meta), seg.Frames)
			}
			if !stored(st, Ref{Video: "RS", Kind: FOV, Seg: seg.Index, A: cl.ID}.StoreKey()) {
				t.Errorf("FOV video %d/%d missing from store", seg.Index, cl.ID)
			}
		}
	}
}

func TestIngestedBitstreamsDecode(t *testing.T) {
	v, _ := scene.ByName("RS")
	st := store.New()
	man, err := Ingest(v, smallIngest(), st)
	if err != nil {
		t.Fatal(err)
	}
	data, _, ok := st.Get(Ref{Video: "RS", Kind: Orig, Seg: 0}.StoreKey())
	if !ok {
		t.Fatal("original segment missing")
	}
	bits, err := UnmarshalBitstream(data)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := codec.DecodeSequence(bits)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 30 || frames[0].W != 96 || frames[0].H != 48 {
		t.Fatalf("decoded %d frames of %dx%d", len(frames), frames[0].W, frames[0].H)
	}
	// Decoded original must resemble the rendered source.
	src := v.RenderFrame(0, 0, 96, 48)
	if psnr := frame.PSNR(src, frames[0]); psnr < 25 {
		t.Errorf("decoded original PSNR = %v dB", psnr)
	}
	// FOV videos decode to the configured viewport size.
	cl := man.Segments[0].Clusters[0]
	fovData, meta, ok := st.Get(Ref{Video: "RS", Kind: FOV, Seg: 0, A: cl.ID}.StoreKey())
	if !ok {
		t.Fatal("FOV video missing")
	}
	fovBits, err := UnmarshalBitstream(fovData)
	if err != nil {
		t.Fatal(err)
	}
	fovFrames, err := codec.DecodeSequence(fovBits)
	if err != nil {
		t.Fatal(err)
	}
	if fovFrames[0].W != 32 || fovFrames[0].H != 32 {
		t.Errorf("FOV frame is %dx%d", fovFrames[0].W, fovFrames[0].H)
	}
	var parsed []FrameMeta
	if err := json.Unmarshal(meta, &parsed); err != nil {
		t.Fatalf("metadata not valid JSON: %v", err)
	}
	if len(parsed) != 30 {
		t.Errorf("metadata has %d entries", len(parsed))
	}
}

func TestBitstreamMarshalRoundTrip(t *testing.T) {
	b := &codec.Bitstream{
		W: 16, H: 8,
		Frames: [][]byte{{1, 2, 3}, {4, 5}},
		Types:  []codec.FrameType{codec.IFrame, codec.PFrame},
	}
	payload := marshalBitstream(b)
	got, err := UnmarshalBitstream(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 16 || got.H != 8 || len(got.Frames) != 2 {
		t.Fatalf("round trip shape: %+v", got)
	}
	if string(got.Frames[0]) != string(b.Frames[0]) || got.Types[1] != codec.PFrame {
		t.Error("round trip content mismatch")
	}
	if _, err := UnmarshalBitstream(payload[:5]); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := UnmarshalBitstream(payload[:len(payload)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	v, _ := scene.ByName("RS")
	svc := NewService(store.New())
	if _, err := svc.IngestVideo(v, smallIngest()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	getOK := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var videos []string
	if err := json.Unmarshal(getOK("/videos"), &videos); err != nil || len(videos) != 1 || videos[0] != "RS" {
		t.Fatalf("videos = %v (%v)", videos, err)
	}
	var man Manifest
	if err := json.Unmarshal(getOK("/v/RS/manifest"), &man); err != nil || man.Video != "RS" {
		t.Fatalf("manifest broken: %v", err)
	}
	if payload := getOK("/v/RS/orig/0"); len(payload) == 0 {
		t.Error("empty original segment")
	}
	cl := man.Segments[0].Clusters[0].ID
	if payload := getOK("/v/RS/fov/0/" + itoa(cl)); len(payload) == 0 {
		t.Error("empty FOV video")
	}
	var meta []FrameMeta
	if err := json.Unmarshal(getOK("/v/RS/fovmeta/0/"+itoa(cl)), &meta); err != nil || len(meta) == 0 {
		t.Fatalf("FOV metadata broken: %v", err)
	}

	// Error paths.
	for _, path := range []string{
		"/v/Nope/manifest", "/v/RS/orig/99", "/v/RS/fov/0/99", "/v/RS/orig/xyz",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("GET %s unexpectedly succeeded", path)
		}
	}
}

func itoa(v int) string {
	return string(rune('0' + v))
}

// TestWriteJSONEncodeFailureIsCleanError feeds writeJSON a value the JSON
// encoder rejects. The regression: the old implementation streamed the
// encoder straight into the ResponseWriter, so an encode failure arrived
// as a 200 with a corrupt mixed body. It must now be a clean 500.
func TestWriteJSONEncodeFailureIsCleanError(t *testing.T) {
	rec := httptest.NewRecorder()
	if err := writeJSON(rec, math.NaN()); err != nil {
		t.Fatalf("writeJSON returned transport error: %v", err)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); json.Valid([]byte(body)) && len(body) > 0 {
		t.Fatalf("error response looks like a JSON payload: %q", body)
	}

	// Healthy values still round-trip.
	rec = httptest.NewRecorder()
	if err := writeJSON(rec, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("healthy writeJSON: status %d body %q", rec.Code, rec.Body.String())
	}
}
