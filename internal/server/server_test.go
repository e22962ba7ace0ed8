package server

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
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
	parsed, err := UnmarshalFrameMeta(meta, len(fovBits.Frames))
	if err != nil {
		t.Fatalf("metadata does not parse: %v", err)
	}
	if len(parsed) != 30 {
		t.Errorf("metadata has %d entries", len(parsed))
	}
}

// segmentOf marshals b as one codec segment, the payload of an original,
// FOV or backfill stream.
func segmentOf(t testing.TB, b *codec.Bitstream) []byte {
	t.Helper()
	payload, err := codec.AppendSegment(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// preSegmentOrig is RS at 16×8 (GOP 2, quality 6, search range 1) as an
// original payload in the framing before the segment container:
// little-endian W, H and frame count, then type, length and a 7-byte-headed
// frame per frame.
const preSegmentOrig = "1000080002000000492c0000004900100008060c85c24a04cc256171501530958740bd84ac2e125026612b0a8a407586b09586d4042c3584a850090000005000100008060cb570"

func TestBitstreamMarshalRoundTrip(t *testing.T) {
	b := &codec.Bitstream{
		Header: codec.Header{W: 16, H: 8, Quality: 6},
		Frames: [][]byte{{1, 2, 3}, {4, 5}},
		Types:  []codec.FrameType{codec.IFrame, codec.PFrame},
	}
	payload := segmentOf(t, b)
	got, err := UnmarshalBitstream(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip: %+v, want %+v", got, b)
	}
	if _, err := UnmarshalBitstream(payload[:5]); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := UnmarshalBitstream(payload[:len(payload)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	old, _ := hex.DecodeString(preSegmentOrig)
	if _, err := UnmarshalBitstream(old); !errors.Is(err, codec.ErrStaleFormat) || !strings.Contains(err.Error(), "re-ingest the video") {
		t.Errorf("payload in the per-frame-header framing: err = %v, want codec.ErrStaleFormat naming \"re-ingest the video\"", err)
	}
}

func TestUnmarshalFrameMetaRejects(t *testing.T) {
	two := MarshalFrameMeta([]FrameMeta{{Yaw: 0.5}, {Pitch: 0.25}})
	for _, c := range []struct {
		name    string
		payload []byte
		frames  int
		want    string
	}{
		{"short", two[:31], 2, "31 bytes, want 32"},
		{"one frame short", two[:16], 2, "16 bytes, want 32"},
		{"long", two, 1, "32 bytes, want 16"},
		{"negative frames", nil, -1, "0 bytes, want -16"},
		{"empty for frames", nil, 2, "0 bytes, want 32"},
		{"NaN yaw", MarshalFrameMeta([]FrameMeta{{}, {Yaw: math.NaN()}}), 2, "frame 1 has a non-finite angle"},
		{"Inf pitch", MarshalFrameMeta([]FrameMeta{{Pitch: math.Inf(1)}}), 1, "frame 0 has a non-finite angle"},
		{"JSON form", []byte(`[{"yaw":0.5,"pitch":0},{"yaw":0,"pitch":0.25}]`), 2, "re-ingest"},
	} {
		if _, err := UnmarshalFrameMeta(c.payload, c.frames); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
	// A binary payload whose first byte happens to be '[' is not JSON.
	lead := MarshalFrameMeta([]FrameMeta{{Yaw: math.Float64frombits(0x3fe000000000005b)}})
	if lead[0] != '[' {
		t.Fatalf("seed starts with %q", lead[0])
	}
	if _, err := UnmarshalFrameMeta(lead, 1); err != nil {
		t.Errorf("a valid payload starting with '[' refused: %v", err)
	}
}

// TestFOVMetaMissCopiesOnlyMeta: with no response cache every payload
// request is a store load, and a FOVMeta load copies the 480-byte metadata
// of its key and not the FOV video stored beside it — the answer allocates
// its metadata plus under 1 kB of envelope, where the video alone is
// several kilobytes at the benchmark's 128² FOV size.
func TestFOVMetaMissCopiesOnlyMeta(t *testing.T) {
	v, _ := scene.ByName("RS")
	cfg := DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 320, 160
	cfg.FOVW, cfg.FOVH = 128, 128
	cfg.MaxSegments = 1
	svc := NewServiceOpts(store.New(), ServiceOptions{})
	man, err := svc.IngestVideo(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := man.Segments[0].Clusters[0]
	ref := Ref{Video: "RS", Kind: FOVMeta, Seg: 0, A: cl.ID}
	video := Ref{Video: "RS", Kind: FOV, Seg: 0, A: cl.ID}
	if a := svc.Answer(video); len(a.Body) < 2<<10 {
		t.Fatalf("FOV video is %d bytes; the guard needs one well over 1 kB", len(a.Body))
	}
	answer := func() {
		if a := svc.Answer(ref); a.Status != http.StatusOK || len(a.Body) != 480 {
			t.Fatalf("FOVMeta answer: status %d, %d bytes", a.Status, len(a.Body))
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	answer()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		answer()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 480+1<<10 {
		t.Errorf("a FOVMeta miss allocates %d B, want its 480-byte metadata plus under 1 kB", got)
	}
}

// TestControlPlaneBytesPinned pins what a session fetches besides video at
// the gated benchmark's geometry (RS 320×160, 128² FOV, 2 segments): the
// manifest carries one pose per FOV video, and every FOVMeta payload is 16
// bytes per frame, served as binary.
func TestControlPlaneBytesPinned(t *testing.T) {
	v, _ := scene.ByName("RS")
	cfg := DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 320, 160
	cfg.FOVW, cfg.FOVH = 128, 128
	cfg.MaxSegments = 2
	svc := NewService(store.New())
	if _, err := svc.IngestVideo(v, cfg); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		return rec
	}
	body := get("/v/RS/manifest").Body.Bytes()
	// 10 624 when every frame's pose was in it; 857 until the one-header
	// segment container took a FOV video's byte count (10 156 → 9 863)
	// down a digit, 856 until the range-coded bodies took five more
	// (10 670 → 8 030, 11 859 → 8 856, 11 174 → 8 303, 11 473 → 8 546,
	// 11 160 → 8 276).
	const manifestBytes = 851
	if len(body) != manifestBytes {
		t.Errorf("manifest is %d bytes, pinned %d", len(body), manifestBytes)
	}
	var man Manifest
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatal(err)
	}
	payloads := 0
	for _, seg := range man.Segments {
		for _, cl := range seg.Clusters {
			rec := get(Ref{Video: "RS", Kind: FOVMeta, Seg: seg.Index, A: cl.ID}.Path())
			if n := rec.Body.Len(); n != 16*seg.Frames || n != 480 {
				t.Errorf("FOVMeta %d/%d is %d bytes, want 16 × %d frames = 480", seg.Index, cl.ID, n, seg.Frames)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
				t.Errorf("FOVMeta %d/%d served as %q", seg.Index, cl.ID, ct)
			}
			payloads++
		}
	}
	if payloads == 0 {
		t.Fatal("no FOV videos ingested")
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
	meta, err := UnmarshalFrameMeta(getOK("/v/RS/fovmeta/0/"+itoa(cl)), man.Segments[0].Frames)
	if err != nil || len(meta) == 0 {
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
