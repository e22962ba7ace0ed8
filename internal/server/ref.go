package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Kind names one of the payloads a segment is served as.
type Kind uint8

const (
	Orig    Kind = iota // the original full-panorama segment
	FOV                 // one cluster's FOV video
	FOVMeta             // that FOV video's per-frame orientations (MarshalFrameMeta)
	Tile                // one tile stream at one quality rung
	TileLow             // the low-res backfill stream
)

// Kinds is the payload table: one row per Kind, in Kind order. A row is the
// kind's name — its URL path element, store-key element and metrics endpoint
// label — and the names of the indices that follow it. Everything that spells
// or parses a payload address (Path, StoreKey, ParseRefPath, Pattern) reads
// this table, so a new payload kind is a row here plus an unmarshal case in
// the client's fetcher.
var Kinds = [...]struct {
	Name    string
	Indices []string // Seg, then A, then B
}{
	Orig:    {"orig", []string{"seg"}},
	FOV:     {"fov", []string{"seg", "cluster"}},
	FOVMeta: {"fovmeta", []string{"seg", "cluster"}},
	Tile:    {"tile", []string{"seg", "tile", "rung"}},
	TileLow: {"tilelow", []string{"seg"}},
}

func (k Kind) String() string { return Kinds[k].Name }

// Pattern is the kind's http.ServeMux route, e.g.
// "GET /v/{video}/fov/{seg}/{cluster}".
func (k Kind) Pattern() string {
	p := "GET /v/{video}/" + Kinds[k].Name
	for _, name := range Kinds[k].Indices {
		p += "/{" + name + "}"
	}
	return p
}

// Ref is the address of one payload: the SAS store key, the URL path and the
// key of every cache tier between them (shard response cache, router edge
// cache, client segment cache). A is the cluster (FOV, FOVMeta) or the
// tile (Tile) and B the tile's rung; indices a kind does not have are zero.
type Ref struct {
	Video     string
	Kind      Kind
	Seg, A, B int
}

// spell writes prefix, the video, the kind's name and the kind's indices,
// slash-separated — the one format behind Path and StoreKey.
func (r Ref) spell(prefix string, kind Kind) string {
	k := &Kinds[kind]
	b := make([]byte, 0, len(prefix)+len(r.Video)+len(k.Name)+16)
	b = append(b, prefix...)
	b = append(b, r.Video...)
	b = append(b, '/')
	b = append(b, k.Name...)
	idx := [...]int{r.Seg, r.A, r.B}
	for _, v := range idx[:len(k.Indices)] {
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// Path is the payload's URL path: /v/{video}/{kind}/{seg}[/{a}[/{b}]].
func (r Ref) Path() string { return r.spell("/v/", r.Kind) }

// StoreKey is the payload's key in the SAS store. A FOV video and its
// metadata are one store entry (data and meta), so FOVMeta shares FOV's key.
func (r Ref) StoreKey() string {
	if r.Kind == FOVMeta {
		return r.spell("", FOV)
	}
	return r.spell("", r.Kind)
}

// ErrNotPayload is ParseRefPath's answer for a path that has the shape of no
// payload route (manifest, catalog, metrics, trailing garbage).
var ErrNotPayload = errors.New("server: not a payload path")

// ParseRefPath parses a URL path back into the Ref whose Path() it is. A path
// shaped like a payload route whose index is not the canonical decimal form
// of a non-negative int — `007`, `+1`, `-2`, `1e3` — is rejected with an error
// naming the index, so no two paths alias one payload in any cache tier.
func ParseRefPath(path string) (Ref, error) {
	rest, ok := strings.CutPrefix(path, "/v/")
	if !ok {
		return Ref{}, ErrNotPayload
	}
	video, rest, _ := strings.Cut(rest, "/")
	name, rest, indexed := strings.Cut(rest, "/")
	if video == "" || !indexed {
		return Ref{}, ErrNotPayload
	}
	for k := range Kinds {
		if Kinds[k].Name != name {
			continue
		}
		indices := Kinds[k].Indices
		if strings.Count(rest, "/") != len(indices)-1 {
			return Ref{}, ErrNotPayload
		}
		var idx [3]int
		for i, index := range indices {
			var v string
			v, rest, _ = strings.Cut(rest, "/")
			if idx[i], ok = canonicalIndex(v); !ok {
				return Ref{}, fmt.Errorf("bad %s", index)
			}
		}
		return Ref{Video: video, Kind: Kind(k), Seg: idx[0], A: idx[1], B: idx[2]}, nil
	}
	return Ref{}, ErrNotPayload
}

// ParseRef is the gate both serving tiers put in front of a payload route
// of their mux (the requests Front does not take): it parses the request's
// path, answering 404 for a path that is not a payload's (only reachable
// percent-encoded, e.g. /orig/0%2Fextra, which the mux matches but its
// literal counterpart would not) and 400 for a non-canonical index.
func ParseRef(w http.ResponseWriter, r *http.Request) (Ref, bool) {
	ref, err := ParseRefPath(r.URL.Path)
	switch {
	case err == nil:
		return ref, true
	case errors.Is(err, ErrNotPayload):
		http.NotFound(w, r)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return Ref{}, false
}

// Front is the entry point both serving tiers put before their mux (DESIGN
// §10 "Payload address"). A request canonicalRef accepts goes straight to
// payload with its parsed Ref: one parse per tier and no pattern match.
// Everything else — the catalog, manifests, metrics, and every payload
// address the mux would answer 400, 404, 405 or redirect — goes to mux,
// whose Kind routes keep ParseRef's gate, so those answers do not change.
func Front(mux *http.ServeMux, payload func(http.ResponseWriter, *http.Request, Ref)) http.Handler {
	return &front{mux: mux, payload: payload}
}

type front struct {
	mux     *http.ServeMux
	payload func(http.ResponseWriter, *http.Request, Ref)
}

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if ref, ok := canonicalRef(r); ok {
		f.payload(w, r, ref)
		return
	}
	f.mux.ServeHTTP(w, r)
}

// canonicalRef parses a request the mux would route, unchanged, to its
// kind's Pattern: a GET or HEAD whose path ParseRefPath accepts, spelled
// without percent-encoding (URL.RawPath empty, so the mux's escaped path
// splits into the same elements as URL.Path), with a video other than "."
// or ".." (the one element ServeMux would clean and redirect; every other
// element is a kind name or a digit string). ok is false for every other
// request, which Front leaves to the mux.
func canonicalRef(r *http.Request) (Ref, bool) {
	if (r.Method != http.MethodGet && r.Method != http.MethodHead) || r.URL.RawPath != "" {
		return Ref{}, false
	}
	ref, err := ParseRefPath(r.URL.Path)
	if err != nil || ref.Video == "." || ref.Video == ".." {
		return Ref{}, false
	}
	return ref, true
}

// canonicalIndex parses the canonical decimal form of a non-negative int:
// "0", or a digit string without a leading zero, short enough to never
// overflow (segments, clusters, tiles and rungs are small integers).
func canonicalIndex(v string) (int, bool) {
	if v == "" || len(v) > 9 || (len(v) > 1 && v[0] == '0') {
		return 0, false
	}
	n := 0
	for i := 0; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			return 0, false
		}
		n = n*10 + int(v[i]-'0')
	}
	return n, true
}

// OfVideo matches every payload of one video — the (re-)ingest purge of a
// cache tier, so stale responses never outlive a republish. Loads of that
// video in flight during the purge may have read the pre-republish store and
// are doomed.
func OfVideo(video string) func(Ref) bool {
	return func(r Ref) bool { return r.Video == video }
}

// OfSegment matches every payload of one (video, segment) — the live-publish
// counterpart of OfVideo, so a publish (or chaos republish) is immediately
// visible without evicting the rest of the video.
func OfSegment(video string, seg int) func(Ref) bool {
	return func(r Ref) bool { return r.Video == video && r.Seg == seg }
}
