// Command evrconform generates and verifies the conformance golden-vector
// corpus: a deterministic sweep of (projection × filter × pose) cases
// through the three renderers — the float reference (pt, whose pixels are
// the GPU baseline's), the exact-mode mapping LUT (ptlut) and the
// fixed-point PTE datapath (pte) — with byte-identity checks, per-case
// error budgets, and metamorphic cross-checks.
//
// The default mode verifies the committed golden manifest: every case is
// re-rendered, compared checksum-for-checksum and metric-for-metric against
// the stored entries, checked against the in-code error budgets, and — in
// full mode — the regenerated manifest must re-marshal byte-identically to
// the committed file, so stale or hand-edited goldens fail the gate.
//
// Usage:
//
//	evrconform                  # full verify: regenerate-and-diff + budgets + metamorphic
//	evrconform -fast            # quick gate: the Fast subset only
//	evrconform -update          # re-render everything and rewrite the manifest
//	evrconform -table           # also print the full per-case table
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"evr/internal/conformance"
)

func main() {
	golden := flag.String("golden", "internal/conformance/testdata/golden.json", "golden manifest path")
	update := flag.Bool("update", false, "re-render the full corpus and rewrite the golden manifest")
	fast := flag.Bool("fast", false, "verify only the fast subset (skips the whole-file diff and metamorphic suite)")
	table := flag.Bool("table", false, "print every case, not just the worst per projection × filter")
	flag.Parse()

	if *update {
		m, err := conformance.Generate(conformance.Corpus())
		if err != nil {
			log.Fatalf("evrconform: generating corpus: %v", err)
		}
		if err := m.Save(*golden); err != nil {
			log.Fatalf("evrconform: writing %s: %v", *golden, err)
		}
		fmt.Printf("wrote %s (%d cases)\n\n", *golden, len(m.Cases))
		printReport(m, *table)
		if v := m.BudgetViolations(); len(v) > 0 {
			fail(v)
		}
		return
	}

	stored, err := conformance.Load(*golden)
	if err != nil {
		log.Fatalf("evrconform: loading golden manifest: %v (run evrconform -update to create it)", err)
	}
	cases := conformance.Corpus()
	if *fast {
		cases = conformance.FastCorpus()
	}
	fresh, err := conformance.Generate(cases)
	if err != nil {
		// A byte-identity invariant broke (pt parallel, exact ptlut, or pte
		// parallel): that is a gate failure, not an infrastructure error.
		fail([]string{err.Error()})
	}

	violations := conformance.Compare(stored, fresh)

	if !*fast {
		// Regenerate-and-diff: the committed file must be byte-identical to
		// a fresh full generation, so goldens cannot rot or be hand-edited.
		want, err := fresh.Encode()
		if err != nil {
			log.Fatalf("evrconform: encoding manifest: %v", err)
		}
		have, err := os.ReadFile(*golden)
		if err != nil {
			log.Fatalf("evrconform: reading %s: %v", *golden, err)
		}
		if !bytes.Equal(want, have) {
			violations = append(violations, fmt.Sprintf(
				"%s is not byte-identical to a fresh generation (stale or edited; run evrconform -update and review the diff)", *golden))
		}
		if mv := conformance.RunMetamorphic(); len(mv) > 0 {
			violations = append(violations, mv...)
		}
	}

	printReport(fresh, *table)
	if len(violations) > 0 {
		fail(violations)
	}
	mode := "full corpus"
	if *fast {
		mode = "fast subset"
	}
	fmt.Printf("conformance OK: %d cases (%s) match %s within budgets\n", len(fresh.Cases), mode, *golden)
}

// printReport prints the worst-case divergence table (and optionally every
// case).
func printReport(m *conformance.Manifest, full bool) {
	fmt.Print(m.FormatTable())
	if full {
		fmt.Println()
		for _, e := range m.Cases {
			fmt.Printf("%-40s maxAbs %3d  MAE %-10g PSNR %6.2f  S-PSNR %6.2f  SSIM %.4f  diff %5.2f%%\n",
				e.Name, e.MaxAbsErr, e.MAE, e.PSNR, e.SPSNR, e.SSIM, 100*e.DiffFrac)
		}
	}
	fmt.Println()
}

func fail(violations []string) {
	fmt.Fprintf(os.Stderr, "conformance FAILED: %d violation(s)\n", len(violations))
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "  - %s\n", v)
	}
	os.Exit(1)
}
