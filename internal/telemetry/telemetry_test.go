package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-4)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(2)
	g.Inc()
	g.Dec()
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if s := h.Snapshot(); s.Count != 0 || h.Snapshot().Quantile(0.5) != 0 {
		t.Error("nil histogram recorded something")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", nil).Observe(1)
	r.SetHelp("x", "help")
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
	var tr *Tracer
	tr.Observe(StageFetch, time.Second)
	tr.StartTimer(StageFetch).Stop()
	sp := tr.StartFrame(0, 0)
	sp.Start(StageRender)
	sp.Stop(StageRender)
	sp.SetHit(true)
	sp.Finish()
	if tr.Frames() != 0 || tr.Summary() != nil || tr.Recent(0) != nil {
		t.Error("nil tracer recorded something")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs", L("endpoint", "manifest"))
	b := r.Counter("reqs", L("endpoint", "manifest"))
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	other := r.Counter("reqs", L("endpoint", "orig"))
	if a == other {
		t.Error("different labels share a counter")
	}
	a.Inc()
	if other.Value() != 0 {
		t.Error("label series not isolated")
	}
	// A kind clash hands back a detached metric rather than panicking.
	detached := r.Gauge("reqs", L("endpoint", "manifest"))
	detached.Set(77)
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "77") {
		t.Error("detached kind-clash metric leaked into exposition")
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("evr_requests_total", "requests served")
	r.Counter("evr_requests_total", L("endpoint", "manifest")).Add(3)
	r.Gauge("evr_in_flight").Set(2)
	h := r.Histogram("evr_latency_seconds", []float64{0.1, 1}, L("endpoint", "manifest"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP evr_requests_total requests served",
		"# TYPE evr_requests_total counter",
		`evr_requests_total{endpoint="manifest"} 3`,
		"# TYPE evr_in_flight gauge",
		"evr_in_flight 2",
		"# TYPE evr_latency_seconds histogram",
		`evr_latency_seconds_bucket{endpoint="manifest",le="0.1"} 1`,
		`evr_latency_seconds_bucket{endpoint="manifest",le="1"} 2`,
		`evr_latency_seconds_bucket{endpoint="manifest",le="+Inf"} 3`,
		`evr_latency_seconds_count{endpoint="manifest"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Deterministic: two writes are byte-identical.
	var buf2 strings.Builder
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if out != buf2.String() {
		t.Error("exposition output not deterministic")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", L("path", `a\b"c`+"\n")).Inc()
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `m{path="a\\b\"c\n"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("escaped series %q missing in %q", want, buf.String())
	}
}

// TestRegistryConcurrent hammers get-or-create, updates, and exposition
// from many goroutines; the -race gate in ci.sh makes this a data-race
// detector, the final counts make it a lost-update detector.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	endpoints := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	const goroutines, iters = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ep := endpoints[(g+i)%len(endpoints)]
				r.Counter("reqs", L("endpoint", ep)).Inc()
				r.Gauge("inflight").Add(1)
				r.Gauge("inflight").Add(-1)
				r.Histogram("lat", nil, L("endpoint", ep)).Observe(float64(i%10) / 1000)
				if i%100 == 0 {
					var buf strings.Builder
					if err := r.WritePrometheus(&buf); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			}
		}(g)
	}
	// Exposition must race series *creation*, not just updates: one
	// goroutine keeps registering brand-new label values (fresh map
	// inserts in lookup) while another loops WritePrometheus, so a
	// serialization pass that reads family maps without the lock
	// trips -race here.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < goroutines*iters; i++ {
			r.Counter("fresh", L("endpoint", fmt.Sprintf("ep%d", i))).Inc()
			r.SetHelp("fresh", fmt.Sprintf("help rev %d", i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < goroutines*iters/4; i++ {
			var buf strings.Builder
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	var total int64
	for _, ep := range endpoints {
		total += r.Counter("reqs", L("endpoint", ep)).Value()
	}
	if want := int64(goroutines * iters); total != want {
		t.Errorf("lost updates: total=%d want %d", total, want)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Errorf("inflight = %d, want 0", got)
	}
	var count int64
	for _, ep := range endpoints {
		count += r.Histogram("lat", nil, L("endpoint", ep)).Snapshot().Count
	}
	if want := int64(goroutines * iters); count != want {
		t.Errorf("histogram lost updates: %d want %d", count, want)
	}
}
