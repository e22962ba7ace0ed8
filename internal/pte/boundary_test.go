package pte_test

import (
	"strings"
	"testing"

	"evr/internal/conformance"
)

// The fixed-point [28, 10] datapath is not bit-identical to the float
// reference, and the divergence concentrates at three clamp/wrap
// boundaries:
//
//   - pole: the output-row v coordinate is clamped at ±π/2 while CORDIC
//     angle error is amplified by the shrinking circumference, so nearest
//     sampling can flip pixels across the polar stress-cap rim;
//   - seam: the ERP θ wrap at ±π quantizes differently in Q[28,10] than in
//     float, moving samples across the longitude seam by up to a texel;
//   - edge: the cube-face selector resolves |x|=|z| ties per datapath, so a
//     ray grazing a face edge (or the corner) may fetch from the adjacent
//     face.
//
// These are documented divergences, not bugs: each class carries an explicit
// error budget in the golden manifest (internal/conformance/golden.go,
// budgetFor), measured with headroom in EXPERIMENTS.md. The regression tests
// below run every corpus case of one class through the full differential
// harness and fail if any case leaves its budget — i.e. if a datapath change
// makes a boundary divergence worse than the documented envelope.

// classCases returns the full-corpus cases carrying one boundary label.
func classCases(t *testing.T, label string) []conformance.Case {
	t.Helper()
	var cs []conformance.Case
	for _, c := range conformance.Corpus() {
		if c.Label == label {
			cs = append(cs, c)
		}
	}
	if len(cs) == 0 {
		t.Fatalf("corpus has no %q cases", label)
	}
	return cs
}

// runClass renders one boundary class through pt, ptlut and pte and
// asserts every case stays inside its documented budget.
func runClass(t *testing.T, label string) *conformance.Manifest {
	t.Helper()
	m, err := conformance.Generate(classCases(t, label))
	if err != nil {
		t.Fatalf("%s class: %v", label, err)
	}
	if v := m.BudgetViolations(); len(v) > 0 {
		t.Fatalf("%s class exceeds its documented divergence budget:\n  %s", label, strings.Join(v, "\n  "))
	}
	return m
}

// maxAbs returns the worst single-channel divergence across a manifest.
func maxAbs(m *conformance.Manifest) int {
	worst := 0
	for _, e := range m.Cases {
		if e.MaxAbsErr > worst {
			worst = e.MaxAbsErr
		}
	}
	return worst
}

func TestPoleDivergenceWithinBudget(t *testing.T) {
	m := runClass(t, "pole")
	// The pole class is where the datapath genuinely diverges (nearest
	// pixel flips across the polar cap rim). If it ever reads as exactly
	// zero the harness is no longer measuring the fixed-point path.
	if maxAbs(m) == 0 {
		t.Fatal("pole class shows zero divergence; differential harness is not exercising the fixed-point datapath")
	}
}

func TestSeamDivergenceWithinBudget(t *testing.T) {
	m := runClass(t, "seam")
	if maxAbs(m) == 0 {
		t.Fatal("seam class shows zero divergence; differential harness is not exercising the fixed-point datapath")
	}
}

func TestEdgeDivergenceWithinBudget(t *testing.T) {
	runClass(t, "edge")
}

// TestPoleWorstCaseStaysVisuallyLossless pins the single worst divergence of
// the whole corpus — ERP, nearest filtering, looking straight up — against
// the paper's visually-lossless criterion: mean error under 1e-3 of full
// scale even on the high-contrast stress scene (§6 claims the PTE output is
// perceptually identical to the GPU's).
func TestPoleWorstCaseStaysVisuallyLossless(t *testing.T) {
	for _, c := range classCases(t, "pole") {
		r, err := conformance.RunCase(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics.MAE >= 1e-3 {
			t.Errorf("%s: MAE %g crosses the 1e-3 visually-lossless line", c.Name, r.Metrics.MAE)
		}
	}
}
