package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"evr/internal/codec"
	"evr/internal/store"
)

// fabricateService hand-builds a published video without running the
// ingest pipeline: one segment with an original payload, one FOV cluster,
// and its metadata. Handler tests need the HTTP surface, not real pixels.
func fabricateService(t *testing.T, opts ServiceOptions) *Service {
	t.Helper()
	st := store.New()
	bits := &codec.Bitstream{Header: codec.Header{W: 16, H: 8, Quality: 4}, Frames: [][]byte{{1, 2, 3}}, Types: []codec.FrameType{codec.IFrame}}
	payload := segmentOf(t, bits)
	meta := MarshalFrameMeta([]FrameMeta{{}})
	if err := st.Put(Ref{Video: "V", Kind: Orig, Seg: 0}.StoreKey(), payload, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(Ref{Video: "V", Kind: FOV, Seg: 0, A: 0}.StoreKey(), payload, meta); err != nil {
		t.Fatal(err)
	}
	svc := NewServiceOpts(st, opts)
	svc.manifests["V"] = &Manifest{
		Video: "V", FPS: 30, SegmentFrames: 1,
		Segments: []SegmentInfo{{Index: 0, Frames: 1, OrigBytes: len(payload),
			Clusters: []ClusterInfo{{ID: 0, Bytes: len(payload)}}}},
	}
	return svc
}

// TestHandlerStatusCodes is the table-driven sweep over the request
// surface: malformed, negative, non-canonical, and smuggled parameters,
// unknown resources, wrong methods, and trailing garbage all get exact
// status codes, and every non-2xx increments the endpoint's error counter.
func TestHandlerStatusCodes(t *testing.T) {
	svc := fabricateService(t, DefaultServiceOptions())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name     string
		method   string
		path     string
		want     int
		endpoint string // endpoint class whose error counter must move (empty = none instrumented)
	}{
		{"videos ok", "GET", "/videos", 200, ""},
		{"manifest ok", "GET", "/v/V/manifest", 200, ""},
		{"orig ok", "GET", "/v/V/orig/0", 200, ""},
		{"fov ok", "GET", "/v/V/fov/0/0", 200, ""},
		{"fovmeta ok", "GET", "/v/V/fovmeta/0/0", 200, ""},

		{"unknown video manifest", "GET", "/v/Nope/manifest", 404, "manifest"},
		{"unknown video orig", "GET", "/v/Nope/orig/0", 404, "orig"},
		{"missing segment", "GET", "/v/V/orig/99", 404, "orig"},
		{"missing cluster", "GET", "/v/V/fov/0/99", 404, "fov"},

		{"non-numeric segment", "GET", "/v/V/orig/xyz", 400, "orig"},
		{"negative segment", "GET", "/v/V/orig/-1", 400, "orig"},
		{"plus-signed segment", "GET", "/v/V/orig/+1", 400, "orig"},
		{"leading-zero segment", "GET", "/v/V/orig/007", 400, "orig"},
		{"overlong segment", "GET", "/v/V/orig/12345678901234567890", 400, "orig"},
		{"empty-ish segment", "GET", "/v/V/orig/%20", 400, "orig"},
		{"negative cluster", "GET", "/v/V/fov/0/-2", 400, "fov"},
		{"non-numeric cluster", "GET", "/v/V/fovmeta/0/zzz", 400, "fovmeta"},

		{"trailing garbage orig", "GET", "/v/V/orig/0/extra", 404, ""},
		{"trailing garbage fov", "GET", "/v/V/fov/0/0/extra", 404, ""},
		{"trailing garbage manifest", "GET", "/v/V/manifest/extra", 404, ""},
		{"smuggled slash segment", "GET", "/v/V/orig/0%2Fextra", 404, "orig"},
		{"smuggled slash cluster", "GET", "/v/V/fov/0/0%2Fextra", 404, "fov"},

		{"wrong method orig", "POST", "/v/V/orig/0", 405, ""},
		{"wrong method videos", "DELETE", "/videos", 405, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before int64
			if tc.endpoint != "" {
				before = svc.metrics.Snapshot().Endpoints[tc.endpoint].Errors
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			if tc.endpoint != "" {
				after := svc.metrics.Snapshot().Endpoints[tc.endpoint].Errors
				if after != before+1 {
					t.Errorf("endpoint %q error counter moved %d→%d, want +1", tc.endpoint, before, after)
				}
			}
		})
	}
}

// TestPayloadDeclaresContentLength: a payload larger than net/http's 2 kB
// chunking buffer is still sent with its length, not chunked, so the client
// reads it into one buffer of the right size.
func TestPayloadDeclaresContentLength(t *testing.T) {
	st := store.New()
	bits := &codec.Bitstream{Header: codec.Header{W: 16, H: 8, Quality: 4}, Frames: [][]byte{make([]byte, 10000)}, Types: []codec.FrameType{codec.IFrame}}
	payload := segmentOf(t, bits)
	if err := st.Put(Ref{Video: "V", Kind: Orig, Seg: 0}.StoreKey(), payload, nil); err != nil {
		t.Fatal(err)
	}
	svc := NewServiceOpts(st, DefaultServiceOptions())
	svc.manifests["V"] = &Manifest{Video: "V", FPS: 30, SegmentFrames: 1,
		Segments: []SegmentInfo{{Index: 0, Frames: 1, OrigBytes: len(payload)}}}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v/V/orig/0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != len(payload) || resp.ContentLength != int64(len(payload)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("%d-byte payload sent as %d bytes, Content-Length %d, transfer encoding %v",
			len(payload), len(body), resp.ContentLength, resp.TransferEncoding)
	}
}

// brokenWriter fails every body write, simulating a client that hung up
// after headers.
type brokenWriter struct {
	http.ResponseWriter
}

func (w brokenWriter) Write([]byte) (int, error) { return 0, errors.New("peer gone") }

// TestHandlerWriteErrorsMetric drives each payload endpoint into a failing
// writer and asserts the per-endpoint writeErrors counter increments.
func TestHandlerWriteErrorsMetric(t *testing.T) {
	svc := fabricateService(t, DefaultServiceOptions())
	h := svc.Handler()
	for _, tc := range []struct {
		endpoint string
		path     string
	}{
		{"orig", "/v/V/orig/0"},
		{"fov", "/v/V/fov/0/0"},
		{"fovmeta", "/v/V/fovmeta/0/0"},
		{"manifest", "/v/V/manifest"},
		{"videos", "/videos"},
	} {
		before := svc.metrics.Snapshot().Endpoints[tc.endpoint]
		var beforeWE int64
		if before != nil {
			beforeWE = before.WriteErrors
		}
		req := httptest.NewRequest("GET", tc.path, nil)
		h.ServeHTTP(brokenWriter{httptest.NewRecorder()}, req)
		after := svc.metrics.Snapshot().Endpoints[tc.endpoint]
		if after.WriteErrors != beforeWE+1 {
			t.Errorf("%s: writeErrors %d→%d, want +1", tc.endpoint, beforeWE, after.WriteErrors)
		}
	}
}

// TestResponseCacheServesSecondRequest exercises the cache through the
// HTTP surface: identical requests must be served from cache with
// identical bytes, and the hit shows up in /metrics.
func TestResponseCacheServesSecondRequest(t *testing.T) {
	svc := fabricateService(t, DefaultServiceOptions())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	first := get("/v/V/orig/0")
	second := get("/v/V/orig/0")
	if string(first) != string(second) {
		t.Fatal("cached response differs from cold response")
	}
	stats, ok := svc.RespCacheStats()
	if !ok {
		t.Fatal("response cache disabled under default options")
	}
	if stats.Hits < 1 || stats.Misses < 1 {
		t.Errorf("cache stats after two identical GETs: %+v", stats)
	}
}

// TestResponseCachePurgedOnReingest republishes a video and checks the
// stale cached payload is not served.
func TestResponseCachePurgedOnReingest(t *testing.T) {
	svc := fabricateService(t, DefaultServiceOptions())
	key := Ref{Video: "V", Kind: Orig}
	if a := svc.payload(key); a.Status != http.StatusOK || len(a.Body) == 0 {
		t.Fatal("seed payload unavailable")
	}
	// Simulate a republish: new store content, then the purge IngestVideo
	// performs.
	fresh := segmentOf(t, &codec.Bitstream{Header: codec.Header{W: 8, H: 8, Quality: 4}, Frames: [][]byte{{9}}, Types: []codec.FrameType{codec.IFrame}})
	if err := svc.store.Put(Ref{Video: "V", Kind: Orig, Seg: 0}.StoreKey(), fresh, nil); err != nil {
		t.Fatal(err)
	}
	svc.cache.PurgeKeys(OfVideo("V"))
	if a := svc.payload(key); a.Status != http.StatusOK || string(a.Body) != string(fresh) {
		t.Error("stale payload served after republish purge")
	}
}

// TestAdmissionControlShedsAndRecovers saturates a MaxInFlight=1 service
// with slow store reads on distinct keys (distinct so singleflight cannot
// absorb them) and asserts: at least one 503 with a Retry-After header,
// the throttled counter moves, and the service serves normally once the
// burst drains.
func TestAdmissionControlShedsAndRecovers(t *testing.T) {
	opts := DefaultServiceOptions()
	opts.RespCacheBytes = 0 // no cache: every request must take a slot
	opts.MaxInFlight = 1
	opts.StoreDelay = 100 * time.Millisecond
	opts.RetryAfter = 2 * time.Second
	svc := fabricateService(t, opts)
	for seg := 1; seg < 4; seg++ {
		if err := svc.store.Put(Ref{Video: "V", Kind: Orig, Seg: seg}.StoreKey(), []byte{byte(seg)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var mu sync.Mutex
	var shed int
	var wg sync.WaitGroup
	start := make(chan struct{})
	for seg := 0; seg < 4; seg++ {
		wg.Add(1)
		go func(seg int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(fmt.Sprintf("%s/v/V/orig/%d", ts.URL, seg))
			if err != nil {
				t.Errorf("GET seg %d: %v", seg, err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			if resp.StatusCode == http.StatusServiceUnavailable {
				if resp.Header.Get("Retry-After") != "2" {
					t.Errorf("503 without Retry-After: %q", resp.Header.Get("Retry-After"))
				}
				mu.Lock()
				shed++
				mu.Unlock()
			} else if resp.StatusCode != http.StatusOK {
				t.Errorf("GET seg %d: %s", seg, resp.Status)
			}
		}(seg)
	}
	close(start)
	wg.Wait()
	if shed == 0 {
		t.Error("4 concurrent 100 ms requests against MaxInFlight=1 shed nothing")
	}
	if got := svc.Throttled(); got != int64(shed) {
		t.Errorf("throttled counter = %d, observed %d 503s", got, shed)
	}
	// After the burst, capacity is free again.
	resp, err := http.Get(ts.URL + "/v/V/orig/0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-burst request = %s, want 200", resp.Status)
	}
}

// TestMetricsSnapshotIncludesServingLayer checks the additive JSON fields.
func TestMetricsSnapshotIncludesServingLayer(t *testing.T) {
	svc := fabricateService(t, DefaultServiceOptions())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v/V/orig/0")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"respCache"`, `"hits":1`, `"misses":1`, `"throttled":0`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics JSON missing %s:\n%s", want, body)
		}
	}
}
