package main

import (
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries "<wire span id>,<request id>" from the benchmark's
// RoundTripper to its wrapper on the top-level handler, so the serve span
// becomes a child of the wire span that caused it.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder was made; Parent is the causing span's ID (-1: none);
// spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder keeps spans in memory; they are written out when the run ends.
// Every span is taken in this package, around calls into the program.
type recorder struct {
	origin time.Time
	reqs   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) open(name string, parent int, req int64) int {
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: now, Parent: parent, Req: req})
	r.mu.Unlock()
	return id
}

func (r *recorder) close(id int) {
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// do runs fn under a root span.
func (r *recorder) do(name string, fn func()) {
	id := r.open(name, -1, r.reqs.Add(1))
	fn()
	r.close(id)
}

// transport wraps a RoundTripper: span "wire" from send to the last body
// byte, stamped on the request for the handler wrapper. seen, when
// non-nil, is told each request path (the replay's script).
func (r *recorder) transport(next http.RoundTripper, seen func(path string)) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if seen != nil {
			seen(req.URL.Path)
		}
		rid := r.reqs.Add(1)
		id := r.open("wire", -1, rid)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id)+","+strconv.FormatInt(rid, 10))
		resp, err := next.RoundTrip(req)
		if err != nil {
			r.close(id)
			return resp, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { r.close(id) }}
		return resp, nil
	})
}

// spanBody closes its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// handler wraps the top-level handler: span "serve", child of the wire
// span named in the header. Requests without the header (untraced
// windows) pass straight through.
func (r *recorder) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h := req.Header.Get(spanHeader)
		if h == "" {
			next.ServeHTTP(w, req)
			return
		}
		parent, rid := -1, int64(0)
		if a, b, ok := strings.Cut(h, ","); ok {
			parent, _ = strconv.Atoi(a)
			rid, _ = strconv.ParseInt(b, 10, 64)
		}
		id := r.open("serve", parent, rid)
		next.ServeHTTP(w, req)
		r.close(id)
	})
}

// layerRow is one layer's line in the per-layer table.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	BusyMs float64 `json:"busy_ms"`
	// SelfMs is busy time minus the part its child spans cover.
	SelfMs float64 `json:"self_ms"`
	// SharePct is self time as a share of the session wall time the
	// table was built against.
	SharePct float64 `json:"share_pct"`
}

// mark returns the number of spans recorded so far; layers(mark, ...)
// then reports only what came after.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// layers folds the spans recorded since mark from into one row per span
// name, with shares of wallMs.
func (r *recorder) layers(from int, wallMs float64) []layerRow {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			child[s.Parent] += s.End - s.Start
		}
	}
	rows := map[string]*layerRow{}
	for i, s := range spans {
		if i < from {
			continue
		}
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			rows[s.Name] = row
		}
		row.Count++
		row.BusyMs += float64(s.End-s.Start) / 1e6
		row.SelfMs += float64(s.End-s.Start-child[i]) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		row.SharePct = 100 * ratio(row.SelfMs, wallMs)
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// row returns the named row (zero when the layer never ran).
func row(rows []layerRow, name string) layerRow {
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	return layerRow{Name: name}
}

func printLayers(logf func(string, ...any), title string, rows []layerRow) {
	logf("%s", title)
	logf("   %-22s %8s %12s %12s %8s", "layer", "count", "busy ms", "self ms", "share %")
	for _, r := range rows {
		logf("   %-22s %8d %12.3f %12.3f %8.2f", r.Name, r.Count, r.BusyMs, r.SelfMs, r.SharePct)
	}
}

// writeTrace writes the spans of a traced run into dir.
func (r *recorder) writeTrace(dir, workload string) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, writeJSON(path, r.spans)
}
