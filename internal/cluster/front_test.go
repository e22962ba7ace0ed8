package cluster

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// frontCases is the router's request surface around the payload routes,
// on the cluster's test video: every Kind spelled canonically,
// percent-encoded spellings (%2F included), empty, "." and ".." path
// elements, a video named "." or "..", trailing slashes, non-canonical
// indices, and methods other than GET. Which of them the shortcut takes is
// pinned in package server (TestFrontTakesOnlyWhatTheMuxRoutesUnchanged).
var frontCases = []struct{ method, path string }{
	{"GET", "/v/CLUSTER/orig/0"},
	{"GET", "/v/CLUSTER/fov/0/0"},
	{"GET", "/v/CLUSTER/fovmeta/0/0"},
	{"GET", "/v/CLUSTER/tile/0/1/1"},
	{"GET", "/v/CLUSTER/tilelow/0"},
	{"GET", "/v/CLUSTER/orig/99"}, // canonical, not stored: the kind's own 404
	{"GET", "/v/Nope/fov/0/0"},
	{"HEAD", "/v/CLUSTER/orig/0"},
	{"HEAD", "/v/CLUSTER/tile/0/0/1"},
	{"GET", "/v/.../orig/0"},    // not a dot segment: the mux does not clean it
	{"GET", "/v/a%20b/orig/0"},  // the default escaping of "a b": RawPath stays empty
	{"GET", "/v/a%3Fb/fov/0/0"}, // likewise "a?b"

	{"POST", "/v/CLUSTER/orig/0"},
	{"PUT", "/v/CLUSTER/tile/0/0/0"},
	{"DELETE", "/v/CLUSTER/fov/0/0"},

	{"GET", "/v/CLUSTER/orig/%30"},
	{"GET", "/v/%43LUSTER/orig/0"},
	{"GET", "/v/CLUSTER/orig/0%2Fextra"},
	{"GET", "/v/CLUSTER/fov/0/0%2Fextra"},
	{"GET", "/v/CLUSTER%2Forig/orig/0"},
	{"GET", "/v/CLUSTER%2Ffov/orig/0"},
	{"GET", "/v/CLUSTER/orig/%20"},
	{"GET", "/v/a%3fb/orig/0"}, // lower-case escape: RawPath kept

	{"GET", "//v/CLUSTER/orig/0"},
	{"GET", "/v//orig/0"},
	{"GET", "/v/CLUSTER//orig/0"},
	{"GET", "/v/CLUSTER/orig//0"},
	{"GET", "/v/CLUSTER/fov/0//0"},
	{"GET", "/./v/CLUSTER/orig/0"},
	{"GET", "/v/./orig/0"},
	{"GET", "/v/CLUSTER/./orig/0"},
	{"GET", "/v/CLUSTER/orig/./0"},
	{"GET", "/v/../orig/0"},
	{"GET", "/v/CLUSTER/../orig/0"},
	{"GET", "/v/CLUSTER/orig/../0"},
	{"GET", "/v/%2E/orig/0"},
	{"GET", "/v/%2E%2E/orig/0"},

	{"GET", "/v/CLUSTER/orig/0/"},
	{"GET", "/v/CLUSTER/fov/0/0/"},
	{"GET", "/v/CLUSTER/tilelow/0/"},

	{"GET", "/v/CLUSTER/orig/007"},
	{"GET", "/v/CLUSTER/orig/+1"},
	{"GET", "/v/CLUSTER/orig/-2"},
	{"GET", "/v/CLUSTER/fov/0/-2"},
	{"GET", "/v/CLUSTER/tile/0/01/0"},
	{"GET", "/v/CLUSTER/tile/0/0/+0"},

	{"GET", "/v/CLUSTER/manifest"},
	{"GET", "/v/CLUSTER/orig"},
	{"GET", "/v/CLUSTER/orig/0/extra"},
	{"GET", "/videos"},
	{"GET", "/healthz"},
}

// TestRouterHandlerAnswersAsItsMux: Handler, shortcut included, answers
// every case — status, headers and body, through the shards — exactly as
// the router's mux alone does, with every header under its canonical key.
// The edge tier is off so each answer is routed (X-Evr-Edge: miss on both).
func TestRouterHandlerAnswersAsItsMux(t *testing.T) {
	opts := DefaultOptions()
	opts.EdgeCacheBytes = -1
	c, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(clusterSpec(), tiledClusterIngest()); err != nil {
		t.Fatal(err)
	}
	front, mux := c.Handler(), c.mux()
	for _, tc := range frontCases {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		front.ServeHTTP(got, httptest.NewRequest(tc.method, tc.path, nil))
		mux.ServeHTTP(want, httptest.NewRequest(tc.method, tc.path, nil))
		if got.Code != want.Code || got.Body.String() != want.Body.String() || !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Errorf("%s %s: Handler answered %d %v %q, the mux %d %v %q", tc.method, tc.path,
				got.Code, got.Header(), got.Body.String(), want.Code, want.Header(), want.Body.String())
		}
		for key := range got.Header() {
			if key != http.CanonicalHeaderKey(key) {
				t.Errorf("%s %s: header %q not under its canonical key", tc.method, tc.path, key)
			}
		}
	}
}
