package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// toySizes is every workload at smoke size: 64-wide panorama, 1 segment,
// 2 sessions per cycle / 250 requests per connection.
var toySizes = sizes{
	PanoW: 64, VPScale: 40, Segments: 1, Users: []int{5, 9},
	ServeVideos: []string{"RS"}, ServeW: 64, ServeSegs: 1,
	PublishEvery: 100, Warm: 50, Batch: 250, TracedRequests: 200,
	SetupRepeats: 1,
}

func toyOptions(t *testing.T, seed int64) options {
	conns, err := resolveConns(0, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	// 1 ms: every connection runs exactly one cycle / one batch.
	return options{seed: seed, seconds: 0.001, conns: conns, sz: toySizes, outDir: t.TempDir(), logf: t.Logf}
}

func loadSpec(t *testing.T) benchSpec {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	var g, w []string
	for n, m := range got {
		g = append(g, n+" "+m.Unit)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s is %v", what, n, m.Value)
		}
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("%s: metrics differ from BENCHMARK.json\n got: %v\nwant: %v", what, g, w)
	}
}

// TestWorkloadsEmitTheContract runs every workload at toy size, untraced
// and traced, and checks the metric names and units against BENCHMARK.json.
func TestWorkloadsEmitTheContract(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, s.Workloads[i].Name, w.name)
		}
		opt := toyOptions(t, 1)
		rec, err := runOnce(w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d (%v)", w.name, rec.Correct, rec.Attempted, rec.Failed, rec.Info)
		}
		sameMetrics(t, w.name, rec.Metrics, s.EndToEnd)
		for n, m := range rec.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, n)
			}
		}

		opt.trace = true
		rec, err = runOnce(w, opt)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !rec.Correct {
			t.Errorf("%s traced: not correct: %v", w.name, rec.Info)
		}
		sameMetrics(t, w.name+" traced", rec.Metrics, s.PerLayer)
		if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s traced: no span file: %v", w.name, err)
		}
		// Layer separation: a layer the workload bypasses stays at zero.
		busy := func(name string) float64 { return rec.Metrics[name].Value }
		if (busy("delivery.busy_ms") > 0) != (w.name == "tiled_view") {
			t.Errorf("%s: delivery.busy_ms = %v", w.name, busy("delivery.busy_ms"))
		}
		if (busy("pte.busy_ms") > 0) != (w.name == "vod_sas") {
			t.Errorf("%s: pte.busy_ms = %v", w.name, busy("pte.busy_ms"))
		}
		if w.name == "serve_zipf" && busy("codec.busy_ms")+busy("pt.busy_ms") > 0 {
			t.Errorf("serve_zipf decoded or rendered")
		}
	}
}

// TestCorrectnessChecksFire corrupts what the program hands back and
// expects the run to notice. The playback workloads share their checks, so
// one of them (the one with the most kinds of payload) stands for all.
func TestCorrectnessChecksFire(t *testing.T) {
	for _, name := range []string{"tiled_view", "serve_zipf"} {
		w := workloadByName(name)
		opt := toyOptions(t, 1)
		opt.tamper = func(url string, body []byte) []byte {
			if strings.Contains(url, "/manifest") || len(body) < 64 {
				return body
			}
			out := append([]byte(nil), body...)
			out[len(out)/2] ^= 0x5a
			if w.name != "serve_zipf" {
				// A damaged frame inside a playable stream may still decode;
				// a truncated one cannot.
				out = out[:len(out)/2]
			}
			return out
		}
		rec, err := runOnce(w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rec.Correct || rec.Failed == 0 {
			t.Errorf("%s: corrupted bodies went unnoticed: correct=%v failed=%d/%d", w.name, rec.Correct, rec.Failed, rec.Attempted)
		}
	}
}

// TestChecksumMismatchFails feeds check a replay whose pixels differ.
func TestChecksumMismatchFails(t *testing.T) {
	e := &playEnv{frames: 30}
	good := session{user: 5, sum: 0xabc}
	good.stats.Frames, good.stats.Hits, good.stats.Misses = 30, 20, 10
	bad := good
	bad.sum = 0xabd
	short := good
	short.stats.Frames = 29
	unbalanced := good
	unbalanced.stats.Hits = 19
	for name, tc := range map[string]struct {
		sessions []session
		failed   int
	}{
		"same pixels":      {[]session{good, good}, 0},
		"corrupted frame":  {[]session{good, bad}, 1},
		"short session":    {[]session{good, short}, 1},
		"hits+misses≠frms": {[]session{unbalanced}, 1},
	} {
		got := e.check([][]cycle{{tc.sessions}})
		if got.failed != tc.failed || got.attempted != len(tc.sessions) {
			t.Errorf("%s: failed %d of %d, want %d", name, got.failed, got.attempted, tc.failed)
		}
	}
}

// TestSeedDeterminism: the same seed gives the same inputs and the same
// exact metrics; another seed gives another order.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"live_orig", "serve_zipf"} {
		w := workloadByName(name)
		a, err := runOnce(w, toyOptions(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runOnce(w, toyOptions(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"wire_kb_per_frame", "view_psnr_db"} {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s: %s differs between two runs of seed 1: %v vs %v", name, m, a.Metrics[m], b.Metrics[m])
			}
		}
		if a.Info["order_hash"] != b.Info["order_hash"] {
			t.Errorf("%s: order hash differs between two runs of seed 1", name)
		}
	}
	orders := map[uint64]bool{}
	requests := map[uint64]bool{}
	for seed := int64(1); seed <= 4; seed++ {
		orders[orderHash(sessionOrder(seed, fullSizes.Users, 2))] = true
		requests[requestOrderHash(seed, 2, 187, 1000)] = true
	}
	if len(orders) < 2 {
		t.Errorf("seeds 1–4 all give the same session order")
	}
	if len(requests) != 4 {
		t.Errorf("seeds 1–4 give %d distinct request orders, want 4", len(requests))
	}
}

func TestResolveConns(t *testing.T) {
	if n, err := resolveConns(0, 8); err != nil || n != 2 {
		t.Errorf("default on 8 cores = %d, %v; want 2", n, err)
	}
	if n, err := resolveConns(0, 1); err != nil || n != 1 {
		t.Errorf("default on 1 core = %d, %v; want 1", n, err)
	}
	if _, err := resolveConns(3, 2); err == nil {
		t.Errorf("3 connections on 2 cores were not refused")
	}
}

func TestHighestPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 0, 20: 0.5, 100: 0.9, 200: 0.95, 999: 0.95, 1000: 0.99, 10000: 0.999} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestQuartileSpread pins the spread rule to Python's
// statistics.quantiles(v, n=4): for 1..10 the quartiles are 2.75 and 8.25.
func TestQuartileSpread(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("one value has spread %v", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fps []float64, failed int) string {
		f := resultFile{}
		for _, v := range fps {
			f.Runs = append(f.Runs, runRecord{Workload: "live_orig", result: result{
				Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]metric{"frames_per_s": {v, "1/s"}},
			}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", []float64{100, 101, 99}, 0)
	for _, tc := range []struct {
		name    string
		b       string
		code    int
		verdict string
	}{
		{"same", write("same.json", []float64{100, 100, 102}, 0), 0, "ok"},
		{"slower", write("slow.json", []float64{70, 71, 69}, 0), 1, "regressed"},
		{"noisy", write("noisy.json", []float64{60, 100, 140}, 0), 0, "unresolved"},
		{"failing", write("fail.json", []float64{100, 101, 99}, 1), 1, "regressed"},
	} {
		var out bytes.Buffer
		if code := compareFiles(&out, specPath, base, tc.b); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: no %q verdict in\n%s", tc.name, tc.verdict, out.String())
		}
	}
}
