package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics. It does not modify v.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile over an already sorted slice.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

// reportablePercentiles is the ladder the sample rule walks.
var reportablePercentiles = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// highestPercentile returns the highest percentile of the ladder that has
// at least ten samples beyond it (0 when even the median has not): a
// percentile resting on fewer samples is one slow request, not a tail.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportablePercentiles {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// calibSink keeps the calibration kernel's result alive.
var calibSink float64

// calibMs times a fixed integer+float kernel. It is run before and after
// every workload: the two readings bracket the run, so a noisy neighbour
// shows as a disturbed run instead of as a regression.
func calibMs() float64 {
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		acc := 0.0
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += math.Sqrt(float64(x&0xffff)+1) * 0.5
		}
		calibSink = acc
		if ms := since(t0) * 1e3; ms < best {
			best = ms
		}
	}
	return best
}

// timeLabel says whether a metric is host time, simulated, or a count.
func timeLabel(name, unit string) string {
	switch {
	case strings.Contains(name, ".sim_"):
		return "(simulated, exact)"
	case unit == "ratio", unit == "count":
		return "(count, exact per request order)"
	case unit == "dB", name == "wire_kb_per_frame":
		return "(exact per seed)"
	default:
		return "(host time)"
	}
}
