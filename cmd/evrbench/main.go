// Command evrbench regenerates every table and figure of the paper's
// evaluation and prints them with the paper-reported values attached.
//
// Usage:
//
//	evrbench [-users N] [-fig ID] [-ablations] [-csv DIR] [-md FILE]
//	evrbench -sport | -sport-fast
//
// With -fig, only the named experiment runs (e.g. -fig "Fig 12"); the
// default runs everything in paper order. -users controls the head-trace
// population (default 59, the full corpus; smaller is faster). Every table
// is byte-identical at any GOMAXPROCS.
//
// With -sport (or -sport-fast for the CI-gate-sized search), evrbench runs
// the spherically-weighted rate-control + truncation sweep and exits
// nonzero unless a SPORT pipeline matches the flat pipeline's S-PSNR at
// strictly lower modeled energy under the same byte ceiling.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"evr/internal/experiments"
	"evr/internal/headtrace"
)

func main() {
	users := flag.Int("users", headtrace.DatasetUsers, "head traces per video")
	fig := flag.String("fig", "", "run only the experiment with this ID (e.g. 'Fig 12')")
	ablations := flag.Bool("ablations", false, "also run the ablation studies (Abl 1-7, Cmp 1)")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	mdPath := flag.String("md", "", "also write a full markdown report to this file")
	sport := flag.Bool("sport", false, "run the full SPORT sweep (spherical rate control + truncation); exits nonzero if no plan beats the flat pipeline")
	sportFast := flag.Bool("sport-fast", false, "run the CI-gate-sized SPORT sweep instead of the full one")
	flag.Parse()
	if *sport || *sportFast {
		if err := runSPORT(*sportFast); err != nil {
			fmt.Fprintf(os.Stderr, "evrbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *users < 1 {
		fmt.Fprintln(os.Stderr, "evrbench: -users must be ≥ 1")
		os.Exit(2)
	}
	start := time.Now()
	tables := experiments.All(*users)
	lowFig := strings.ToLower(*fig)
	if *ablations || strings.HasPrefix(lowFig, "abl") || strings.HasPrefix(lowFig, "cmp") {
		tables = append(tables, experiments.Ablations(*users)...)
	}
	matched := false
	for _, tb := range tables {
		if *fig != "" && !strings.EqualFold(tb.ID, *fig) {
			continue
		}
		matched = true
		fmt.Println(tb.String())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, tb); err != nil {
				fmt.Fprintf(os.Stderr, "evrbench: writing CSV: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if *fig != "" && !matched {
		fmt.Fprintf(os.Stderr, "evrbench: no experiment with ID %q; available:\n", *fig)
		for _, tb := range tables {
			fmt.Fprintf(os.Stderr, "  %s\n", tb.ID)
		}
		os.Exit(2)
	}
	if *mdPath != "" {
		err := writeFile(*mdPath, func(w io.Writer) error {
			return experiments.WriteReport(w, *users, *ablations)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "evrbench: writing report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote markdown report %s\n", *mdPath)
	}
	fmt.Printf("regenerated in %v with %d users/video\n", time.Since(start).Round(time.Millisecond), *users)
}

// runSPORT executes the sweep in the requested mode, prints the table, and
// fails when no feasible plan beat the flat pipeline.
func runSPORT(fast bool) error {
	r, err := experiments.SPORT(experiments.SPORTConfig{Fast: fast})
	if err != nil {
		return err
	}
	fmt.Println(experiments.SPORTTable(r).String())
	if !r.Feasible {
		return fmt.Errorf("SPORT sweep found no plan matching the flat pipeline's %.2f dB at lower energy", r.TargetSPSNR)
	}
	return nil
}

// writeCSV writes one table into dir/<stem>.csv.
func writeCSV(dir string, tb experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, tb.FileStem()+".csv"), func(w io.Writer) error {
		return csv.NewWriter(w).WriteAll(tb.CSV()) // WriteAll flushes
	})
}

// writeFile creates path, hands it to write and closes it, returning the
// first of the write error and the close error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
