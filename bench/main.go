// Command bench is the repository's end-to-end and per-layer benchmark: one
// closed-loop load generator that drives the real playback client and the
// real serving tier in-process over loopback, checks that what they
// produce is correct, and reports the metrics BENCHMARK.json names. It
// reaches the program under test only through exported functions of
// evr/internal/...; every span and counter it reports is taken here, around
// those calls. See README.md for the metric and workload definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number. Host-time numbers are wall-clock
// measurements on this machine; simulated ones come from the repo's device
// models and must repeat exactly.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as kept in the result file -compare reads.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
	// CalibMs is the calibration kernel timed before and after the run;
	// Disturbed marks a run whose two readings differ by more than a tenth.
	CalibMs   [2]float64 `json:"calib_ms"`
	Disturbed bool       `json:"disturbed"`
	// Info holds numbers printed for the reader but not gated: sample
	// counts, percentiles above the gated ones, per-layer tables.
	Info map[string]any `json:"info,omitempty"`
}

// resultFile is what a run writes under bench/out and -compare reads.
type resultFile struct {
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Conns      int         `json:"conns"`
	Seconds    float64     `json:"seconds"`
	Runs       []runRecord `json:"runs"`
}

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	conns   int
	sz      sizes
	// outDir is where traced runs write their spans.
	outDir string
	// tamper, when set, may corrupt a response body on its way to the
	// client — the tests use it to prove the correctness checks fire.
	tamper func(url string, body []byte) []byte
	logf   func(format string, args ...any)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all of them, one after another)")
		seed         = flag.Int64("seed", 1, "workload seed: session / request order (2 is the held-out seed)")
		seconds      = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace        = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics with tracing off")
		conns        = flag.Int("conns", 0, "closed-loop sessions/connections (0 = min(nproc, 2); more than nproc is refused)")
		repeat       = flag.Int("repeat", 1, "run each workload this many times (same seed) so -compare can see the spread")
		out          = flag.String("out", "", "result file (default bench/out/result[-<workload>][-trace].json)")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	// Paths (BENCHMARK.json, bench/out) are relative to the repository
	// root; `go run -C bench .` starts one level below it.
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
			if err := os.Chdir(".."); err != nil {
				fatalf("%v", err)
			}
		}
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	nproc := runtime.NumCPU()
	nconns, err := resolveConns(*conns, nproc)
	if err != nil {
		fatalf("%v", err)
	}
	if *seconds <= 0 || *repeat < 1 {
		fatalf("-seconds and -repeat must be positive")
	}
	var todo []*workload
	if *workloadName == "" {
		todo = workloads
	} else {
		w := workloadByName(*workloadName)
		if w == nil {
			fatalf("unknown workload %q", *workloadName)
		}
		todo = []*workload{w}
	}
	opt := options{
		seed: *seed, seconds: *seconds, trace: *trace != 0, conns: nconns, sz: fullSizes, outDir: outDir,
		logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}
	fmt.Printf("bench: closed loop, %d concurrent sessions/connections from this one process; server in-process on loopback\n", opt.conns)
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d conns=%d seed=%d seconds=%g trace=%d\n",
		nproc, runtime.GOMAXPROCS(0), opt.conns, opt.seed, opt.seconds, *trace)

	file := resultFile{NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Conns: opt.conns, Seconds: opt.seconds}
	var last result
	for _, w := range todo {
		for i := 0; i < *repeat; i++ {
			rec, err := runOnce(w, opt)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			printRecord(rec)
			file.Runs = append(file.Runs, rec)
			last = rec.result
		}
	}
	path := *out
	if path == "" {
		name := "result"
		if *workloadName != "" {
			name += "-" + *workloadName
		}
		if opt.trace {
			name += "-trace"
		}
		path = filepath.Join(outDir, name+".json")
	}
	if err := writeJSON(path, file); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	fmt.Printf("bench: wrote %s\n", path)
	// The contract line: with one workload it is that workload's result;
	// with all of them it is the last one's (each is printed above).
	line, err := json.Marshal(last)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

// outDir is where results and traces go, relative to the repository root.
var outDir = filepath.Join("bench", "out")

// resolveConns picks the closed-loop connection count: min(nproc, 2) by
// default, and never more generator connections than cores — beyond that
// the numbers would measure the generator queueing on itself.
func resolveConns(asked, nproc int) (int, error) {
	if asked == 0 {
		return min(nproc, 2), nil
	}
	if asked < 1 || asked > nproc {
		return 0, fmt.Errorf("-conns %d refused: this host has %d cores and the generator must not outnumber them", asked, nproc)
	}
	return asked, nil
}

// runOnce runs one workload once, bracketed by the calibration kernel.
func runOnce(w *workload, opt options) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seed: opt.seed}
	if opt.trace {
		rec.Trace = 1
	}
	runtime.GC() // an earlier -repeat's garbage is not this run's to collect
	rec.CalibMs[0] = calibMs()
	var (
		res  result
		info map[string]any
		err  error
	)
	if opt.trace {
		res, info, err = w.traced(w, opt)
	} else {
		res, info, err = w.measure(w, opt)
	}
	if err != nil {
		return rec, err
	}
	rec.CalibMs[1] = calibMs()
	lo, hi := rec.CalibMs[0], rec.CalibMs[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	rec.Disturbed = hi > lo*1.1
	if opt.trace {
		res.Metrics["calib_ms"] = metric{(rec.CalibMs[0] + rec.CalibMs[1]) / 2, "ms"}
	}
	rec.result, rec.Info = res, info
	return rec, nil
}

// printRecord prints every metric of a run by name with its unit.
func printRecord(rec runRecord) {
	fmt.Printf("== %s seed=%d trace=%d  correct=%v attempted=%d failed=%d  calib_ms=%.2f/%.2f",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Attempted, rec.Failed, rec.CalibMs[0], rec.CalibMs[1])
	if rec.Disturbed {
		fmt.Print("  DISTURBED (calibration readings differ by more than a tenth)")
	}
	fmt.Println()
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("   %-34s %14.4f %-8s %s\n", n, m.Value, m.Unit, timeLabel(n, m.Unit))
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// since is time.Since in float seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
