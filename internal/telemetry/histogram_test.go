package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	h.Observe(-1)         // ignored
	h.Observe(math.NaN()) // ignored
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if want := []int64{1, 1, 1, 1}; len(s.Counts) != 4 ||
		s.Counts[0] != want[0] || s.Counts[1] != want[1] || s.Counts[2] != want[2] || s.Counts[3] != want[3] {
		t.Errorf("bucket counts = %v", s.Counts)
	}
	if s.Max != 10 {
		t.Errorf("max = %v, want 10", s.Max)
	}
	if math.Abs(s.Sum-15) > 1e-6 {
		t.Errorf("sum = %v, want 15", s.Sum)
	}
	h.ObserveDuration(20 * time.Second)
	if got := h.Snapshot().Max; got != 20 {
		t.Errorf("max after duration = %v, want 20", got)
	}
}

func TestHistogramBoundsSortedDeduped(t *testing.T) {
	h := NewHistogram([]float64{4, 1, 2, 2, 1})
	s := h.Snapshot()
	if want := []float64{1, 2, 4}; len(s.Bounds) != 3 || s.Bounds[0] != want[0] || s.Bounds[1] != want[1] || s.Bounds[2] != want[2] {
		t.Errorf("bounds = %v, want %v", s.Bounds, want)
	}
}

// TestHistogramQuantileProperty is the accuracy contract: for random
// workloads, every recorded quantile is within one bucket width of the
// exact sample quantile (overflow observations are excluded by keeping
// samples inside the bucket range).
func TestHistogramQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := DefaultLatencyBuckets()
	for trial := 0; trial < 20; trial++ {
		h := NewHistogram(bounds)
		n := 100 + rng.Intn(2000)
		samples := make([]float64, n)
		for i := range samples {
			// Log-uniform across the bucket range, clamped under the top
			// bound so the overflow bucket stays empty.
			v := math.Exp(rng.Float64()*math.Log(bounds[len(bounds)-1]/bounds[0])) * bounds[0]
			if v > bounds[len(bounds)-1] {
				v = bounds[len(bounds)-1]
			}
			samples[i] = v
			h.Observe(v)
		}
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		snap := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := sorted[rank-1]
			got := snap.Quantile(q)
			width := bucketWidthContaining(bounds, exact)
			if diff := math.Abs(got - exact); diff > width+1e-12 {
				t.Errorf("trial %d q=%v: got %v exact %v (diff %v > bucket width %v)",
					trial, q, got, exact, diff, width)
			}
		}
	}
}

// bucketWidthContaining returns the width of the bucket holding v.
func bucketWidthContaining(bounds []float64, v float64) float64 {
	i := sort.SearchFloat64s(bounds, v)
	if i >= len(bounds) {
		return math.Inf(1)
	}
	if i == 0 {
		return bounds[0]
	}
	return bounds[i] - bounds[i-1]
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(0.5)
	if got := h.Snapshot().Quantile(1.0); got > 0.5+1e-9 {
		t.Errorf("quantile exceeds tracked max: %v", got)
	}
	// Overflow bucket reports the exact max.
	h.Observe(100)
	if got := h.Snapshot().Quantile(1.0); got != 100 {
		t.Errorf("overflow quantile = %v, want 100", got)
	}
	// Out-of-range q is clamped, not panicking.
	if got := h.Snapshot().Quantile(-1); got <= 0 {
		t.Errorf("q=-1 → %v, want first-sample estimate > 0", got)
	}
	h.Snapshot().Quantile(2)
}

// TestHistogramConcurrent checks lock-free updates under contention: no
// lost observations and an exact max, with ci.sh's -race gate watching.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	var wg sync.WaitGroup
	const goroutines, iters = 8, 2000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h.Observe(float64(i%100) / 1000)
				if i%500 == 0 {
					h.Snapshot().Quantile(0.95)
				}
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := int64(goroutines * iters); s.Count != want {
		t.Errorf("count = %d, want %d (lost updates)", s.Count, want)
	}
	if want := 0.099; math.Abs(s.Max-want) > 1e-9 {
		t.Errorf("max = %v, want %v", s.Max, want)
	}
}
