package server

import (
	"errors"
	"testing"
)

// TestRefRoundTrip pins the payload address: every kind's path parses back to
// the Ref that spelled it, the store keys are the four legacy spellings
// (persisted Store.WriteTo snapshots are keyed by them), and for equal indices
// no two kinds share a path or — fovmeta riding on fov's entry aside — a
// store key.
func TestRefRoundTrip(t *testing.T) {
	cases := []struct {
		ref            Ref
		path, storeKey string
	}{
		{Ref{Video: "RS", Kind: Orig, Seg: 3}, "/v/RS/orig/3", "RS/orig/3"},
		{Ref{Video: "RS", Kind: FOV, Seg: 3, A: 1}, "/v/RS/fov/3/1", "RS/fov/3/1"},
		{Ref{Video: "RS", Kind: FOVMeta, Seg: 3, A: 1}, "/v/RS/fovmeta/3/1", "RS/fov/3/1"},
		{Ref{Video: "RS", Kind: Tile, Seg: 3, A: 1, B: 2}, "/v/RS/tile/3/1/2", "RS/tile/3/1/2"},
		{Ref{Video: "RS", Kind: TileLow, Seg: 3}, "/v/RS/tilelow/3", "RS/tilelow/3"},
		{Ref{Video: "a video", Kind: Orig, Seg: 123456789}, "/v/a video/orig/123456789", "a video/orig/123456789"},
	}
	if len(cases) < len(Kinds) {
		t.Fatalf("%d cases do not cover the %d kinds", len(cases), len(Kinds))
	}
	for _, tc := range cases {
		if got := tc.ref.Path(); got != tc.path {
			t.Errorf("%+v.Path() = %q, want %q", tc.ref, got, tc.path)
		}
		if got := tc.ref.StoreKey(); got != tc.storeKey {
			t.Errorf("%+v.StoreKey() = %q, want %q", tc.ref, got, tc.storeKey)
		}
		if got, err := ParseRefPath(tc.path); err != nil || got != tc.ref {
			t.Errorf("ParseRefPath(%q) = %+v, %v; want %+v", tc.path, got, err, tc.ref)
		}
	}

	paths, storeKeys := map[string]Kind{}, map[string]Kind{}
	for k := range Kinds {
		ref := Ref{Video: "V", Kind: Kind(k), Seg: 1, A: 1, B: 1}
		if other, dup := paths[ref.Path()]; dup {
			t.Errorf("%v and %v share the path %q", other, ref.Kind, ref.Path())
		}
		paths[ref.Path()] = ref.Kind
		if other, dup := storeKeys[ref.StoreKey()]; dup && !(other == FOV && ref.Kind == FOVMeta) {
			t.Errorf("%v and %v share the store key %q", other, ref.Kind, ref.StoreKey())
		}
		storeKeys[ref.StoreKey()] = ref.Kind
	}
	if len(storeKeys) != len(Kinds)-1 {
		t.Errorf("%d distinct store keys over %d kinds, want fovmeta alone to share one", len(storeKeys), len(Kinds))
	}
}

// TestParseRefPathRejects pins the gate: paths of no payload route are
// ErrNotPayload (404 at a handler), a payload route with a non-canonical
// index is a different error naming the index (400).
func TestParseRefPathRejects(t *testing.T) {
	for path, notPayload := range map[string]bool{
		"/videos":               true,
		"/metrics":              true,
		"/v/RS/manifest":        true,
		"/v/RS/unknown/3":       true,
		"/v/RS/orig":            true,
		"/v/RS/orig/0/extra":    true,
		"/v/RS/fov/0":           true,
		"/v/RS/tile/0/1":        true,
		"/v//orig/0":            true,
		"v/RS/orig/0":           true,
		"/v/RS/orig/":           false,
		"/v/RS/orig/x":          false,
		"/v/RS/orig/-2":         false,
		"/v/RS/orig/+1":         false,
		"/v/RS/orig/007":        false,
		"/v/RS/orig/1e3":        false,
		"/v/RS/orig/ 1":         false,
		"/v/RS/orig/1234567890": false,
		"/v/RS/fov/0/00":        false,
		"/v/RS/fovmeta/0/-1":    false,
		"/v/RS/tile/0/1/02":     false,
		"/v/RS/tile/0//2":       false,
	} {
		ref, err := ParseRefPath(path)
		if err == nil {
			t.Errorf("ParseRefPath(%q) = %+v, want an error", path, ref)
		} else if got := errors.Is(err, ErrNotPayload); got != notPayload {
			t.Errorf("ParseRefPath(%q) = %v; ErrNotPayload = %v, want %v", path, err, got, notPayload)
		}
	}
}

// FuzzParseRefPath: any path parses or errors (never panics), and a path that
// parses is the canonical spelling of its Ref — so no two request paths can
// alias one cache entry in any tier.
func FuzzParseRefPath(f *testing.F) {
	for _, seed := range []string{
		"/v/RS/orig/3", "/v/RS/fov/2/1", "/v/RS/fovmeta/5/0", "/v/RS/tile/7/3/1", "/v/RS/tilelow/4",
		"/v/RS/orig/007", "/v/RS/orig/+1", "/v/RS/orig/-1", "/v/RS/tile/0/1", "/v/a/b/orig/0",
		"/v/RS/manifest", "/videos", "", "/v/", "/v//orig/0", "/v/RS/orig/999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		ref, err := ParseRefPath(path)
		if err != nil {
			return
		}
		if got := ref.Path(); got != path {
			t.Fatalf("ParseRefPath(%q) = %+v, whose Path() is %q", path, ref, got)
		}
	})
}
