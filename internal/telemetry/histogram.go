package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram for non-negative observations
// (latencies in seconds, by convention). Buckets are "less-or-equal" upper
// bounds, Prometheus-style, with an implicit +Inf overflow bucket; counts
// and the exact sum/max are updated atomically, so concurrent Observe calls
// never lock. The nil Histogram is valid and discards all observations.
//
// Quantiles are estimated by linear interpolation inside the bucket that
// contains the target rank, so the estimate is always within one bucket
// width of the exact sample quantile (the overflow bucket reports the
// exact tracked maximum instead).
type Histogram struct {
	bounds   []float64 // ascending upper bounds, seconds
	counts   []atomic.Int64
	sumNanos atomic.Int64
	maxNanos atomic.Int64
}

// DefaultLatencyBuckets returns the default request-latency bounds in
// seconds: roughly exponential from 100 µs to 10 s — wide enough for a
// network hop and tight enough that one bucket width is a usable error bar.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// DefaultStageBuckets returns bounds tuned for per-frame pipeline stages,
// which run from microseconds (FOV check) to tens of milliseconds (PT
// render of a large viewport): exponential from 10 µs to 10 s.
func DefaultStageBuckets() []float64 {
	return []float64{
		0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
		0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// NewHistogram builds a histogram with the given ascending upper bounds
// (nil or empty uses DefaultLatencyBuckets). Bounds are copied, then
// sorted and deduplicated defensively.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	dedup := b[:0]
	for i, v := range b {
		if i == 0 || v != b[i-1] {
			dedup = append(dedup, v)
		}
	}
	return &Histogram{bounds: dedup, counts: make([]atomic.Int64, len(dedup)+1)}
}

// Observe records one non-negative value (seconds for latencies).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || v < 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // smallest i with bounds[i] >= v
	h.counts[i].Add(1)
	nanos := int64(v * 1e9)
	h.sumNanos.Add(nanos)
	for {
		old := h.maxNanos.Load()
		if nanos <= old || h.maxNanos.CompareAndSwap(old, nanos) {
			return
		}
	}
}

// ObserveDuration records a duration as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Concurrent observers may land between bucket reads, so Count is defined
// as the sum of Counts — internally consistent for quantile walks.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, seconds
	Counts []int64   // len(Bounds)+1; last entry is the +Inf overflow
	Count  int64     // total observations (sum of Counts)
	Sum    float64   // sum of observed values, seconds
	Max    float64   // exact maximum observed value, seconds
}

// Snapshot copies the histogram (zero-valued for a nil Histogram).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    float64(h.sumNanos.Load()) / 1e9,
		Max:    float64(h.maxNanos.Load()) / 1e9,
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Quantile estimates the q-th sample quantile (q in [0,1]) from the
// snapshot by interpolating inside the target bucket; the result is within
// one bucket width of the exact quantile and never exceeds the tracked
// maximum. An empty snapshot reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i == len(s.Bounds) {
				return s.Max // overflow bucket: the exact max is the best bound
			}
			var lo float64
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			v := lo + (hi-lo)*float64(rank-cum)/float64(c)
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum += c
	}
	return s.Max
}
