package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
)

// frontCases is the request surface around the payload routes: every Kind
// spelled canonically, percent-encoded spellings (%2F included), empty,
// "." and ".." path elements, a video named "." or "..", trailing slashes,
// non-canonical indices, and methods other than GET. take is whether
// canonicalRef (and so Front's shortcut) accepts the request.
var frontCases = []struct {
	method, path string
	take         bool
}{
	{"GET", "/v/V/orig/0", true},
	{"GET", "/v/V/fov/0/0", true},
	{"GET", "/v/V/fovmeta/0/0", true},
	{"GET", "/v/V/tile/0/1/1", true},
	{"GET", "/v/V/tilelow/0", true},
	{"GET", "/v/V/orig/99", true}, // canonical, not stored: the kind's own 404
	{"GET", "/v/Nope/fov/0/0", true},
	{"HEAD", "/v/V/orig/0", true},
	{"HEAD", "/v/V/tile/0/0/1", true},
	{"GET", "/v/.../orig/0", true},    // not a dot segment: the mux does not clean it
	{"GET", "/v/a%20b/orig/0", true},  // the default escaping of "a b": RawPath stays empty
	{"GET", "/v/a%3Fb/fov/0/0", true}, // likewise "a?b"

	{"POST", "/v/V/orig/0", false},
	{"PUT", "/v/V/tile/0/0/0", false},
	{"DELETE", "/v/V/fov/0/0", false},

	{"GET", "/v/V/orig/%30", false},
	{"GET", "/v/%56/orig/0", false},
	{"GET", "/v/V/orig/0%2Fextra", false},
	{"GET", "/v/V/fov/0/0%2Fextra", false},
	{"GET", "/v/V%2Forig/orig/0", false},
	{"GET", "/v/V%2Ffov/orig/0", false},
	{"GET", "/v/V/orig/%20", false},
	{"GET", "/v/a%3fb/orig/0", false}, // lower-case escape: RawPath kept

	{"GET", "//v/V/orig/0", false},
	{"GET", "/v//orig/0", false},
	{"GET", "/v/V//orig/0", false},
	{"GET", "/v/V/orig//0", false},
	{"GET", "/v/V/fov/0//0", false},
	{"GET", "/./v/V/orig/0", false},
	{"GET", "/v/./orig/0", false},
	{"GET", "/v/V/./orig/0", false},
	{"GET", "/v/V/orig/./0", false},
	{"GET", "/v/../orig/0", false},
	{"GET", "/v/V/../orig/0", false},
	{"GET", "/v/V/orig/../0", false},
	{"GET", "/v/%2E/orig/0", false},
	{"GET", "/v/%2E%2E/orig/0", false},

	{"GET", "/v/V/orig/0/", false},
	{"GET", "/v/V/fov/0/0/", false},
	{"GET", "/v/V/tilelow/0/", false},

	{"GET", "/v/V/orig/007", false},
	{"GET", "/v/V/orig/+1", false},
	{"GET", "/v/V/orig/-2", false},
	{"GET", "/v/V/fov/0/-2", false},
	{"GET", "/v/V/tile/0/01/0", false},
	{"GET", "/v/V/tile/0/0/+0", false},

	{"GET", "/v/V/manifest", false},
	{"GET", "/v/V/orig", false},
	{"GET", "/v/V/orig/0/extra", false},
	{"GET", "/videos", false},
	{"GET", "/healthz", false},
}

// TestFrontTakesOnlyWhatTheMuxRoutesUnchanged: every request the shortcut
// takes, a ServeMux holding the Kind patterns routes to that kind's pattern
// without a redirect, its path values spelling the Ref canonicalRef and
// ParseRefPath return; and Handler answers every case — status, headers and
// body — exactly as the mux alone does.
func TestFrontTakesOnlyWhatTheMuxRoutesUnchanged(t *testing.T) {
	kinds := http.NewServeMux()
	for k := range Kinds {
		kind := Kind(k)
		kinds.HandleFunc(kind.Pattern(), func(w http.ResponseWriter, r *http.Request) {
			ref := Ref{Video: r.PathValue("video"), Kind: kind}
			idx := [...]*int{&ref.Seg, &ref.A, &ref.B}
			for i, name := range Kinds[kind].Indices {
				n, err := strconv.Atoi(r.PathValue(name))
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				*idx[i] = n
			}
			fmt.Fprintf(w, "%+v", ref)
		})
	}
	for _, tc := range frontCases {
		ref, ok := canonicalRef(httptest.NewRequest(tc.method, tc.path, nil))
		if ok != tc.take {
			t.Errorf("%s %s: shortcut takes it = %v, want %v", tc.method, tc.path, ok, tc.take)
		}
		if !ok {
			continue
		}
		r := httptest.NewRequest(tc.method, tc.path, nil)
		if parsed, err := ParseRefPath(r.URL.Path); err != nil || parsed != ref {
			t.Errorf("%s %s: ParseRefPath = %+v, %v; canonicalRef = %+v", tc.method, tc.path, parsed, err, ref)
		}
		if _, pattern := kinds.Handler(r); pattern != ref.Kind.Pattern() {
			t.Errorf("%s %s: mux pattern %q, want %q", tc.method, tc.path, pattern, ref.Kind.Pattern())
		}
		rec := httptest.NewRecorder()
		kinds.ServeHTTP(rec, r)
		if want := fmt.Sprintf("%+v", ref); rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Errorf("%s %s: mux answered %d %q, want 200 %q", tc.method, tc.path, rec.Code, rec.Body.String(), want)
		}
	}

	svc := fabricateTiledService(t, DefaultServiceOptions())
	front := svc.Handler()
	mux, _ := svc.routes()
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
