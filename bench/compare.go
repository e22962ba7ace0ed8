package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: -compare takes each end-to-end metric's
// direction and regression bound from it, the tests the names and units.
type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) — the rule the benchmark's bounds are
// judged by. One value has no spread.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

// side is one result file's runs of one workload, tracing off.
type side struct {
	values            map[string][]float64
	attempted, failed int
	incorrect         int
	disturbed         int
}

func loadSides(path string) (map[string]*side, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]*side{}
	for _, r := range f.Runs {
		if r.Trace != 0 {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			out[r.Workload] = s
		}
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		if !r.Correct {
			s.incorrect++
		}
		if r.Disturbed {
			s.disturbed++
		}
	}
	return out, nil
}

// compareFiles prints one row per (metric, workload) of two result files —
// a is the base, b the candidate — and returns the exit code: 1 when any
// metric regressed beyond its bound, any run of b was incorrect, or b's
// fail ratio rose.
func compareFiles(w io.Writer, specPath, aPath, bPath string) int {
	buf, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v (run from the repository root)\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		fmt.Fprintf(w, "compare: BENCHMARK.json: %v\n", err)
		return 2
	}
	a, err := loadSides(aPath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	b, err := loadSides(bPath)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-11s %-19s %14s %14s %9s %7s %7s %7s  %s\n",
		"workload", "metric", "a (base)", "b", "b/a", "bound", "iqr a", "iqr b", "verdict")
	for _, wl := range workloads {
		sa, sb := a[wl.name], b[wl.name]
		if sa == nil || sb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := sa.values[m.Name], sb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(ma-mb, ma) // share of the base by which b is worse
			if m.Better == "lower" {
				worse = -worse
			}
			spreadA, spreadB := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case max(spreadA, spreadB) > m.Bound:
				verdict = "unresolved (spread wider than bound)"
			case worse > m.Bound+1e-12:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(w, "%-11s %-19s %14.4f %14.4f %9.4f %7.3f %7.4f %7.4f  %s\n",
				wl.name, m.Name, ma, mb, ratio(mb, ma), m.Bound, spreadA, spreadB, verdict)
		}
		fa, fb := ratio(float64(sa.failed), float64(sa.attempted)), ratio(float64(sb.failed), float64(sb.attempted))
		verdict := "ok"
		if fb > fa || sb.incorrect > 0 {
			verdict = "regressed"
			code = 1
		}
		fmt.Fprintf(w, "%-11s %-19s %14.6f %14.6f %9s %7s %7s %7s  %s\n", wl.name, "fail_ratio", fa, fb, "", "0", "", "", verdict)
		if sa.disturbed+sb.disturbed > 0 {
			fmt.Fprintf(w, "%-11s note: %d run(s) of a and %d of b were disturbed (calibration readings more than a tenth apart)\n",
				wl.name, sa.disturbed, sb.disturbed)
		}
	}
	return code
}
