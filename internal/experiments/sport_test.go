package experiments

import (
	"reflect"
	"testing"
)

// The fast sweep is the CI gate: it must find a feasible SPORT pipeline —
// equal-or-better S-PSNR than flat at strictly lower modeled energy and no
// more compressed bytes — and it must be deterministic run-to-run.
func TestSPORTFastFeasibleAndDeterministic(t *testing.T) {
	r1, err := SPORT(SPORTConfig{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Feasible {
		t.Fatalf("fast sweep found no feasible plan: flat %.3f dB / %.3g J, best %.3f dB / %.3g J",
			r1.Flat.SPSNR, r1.Flat.EnergyJ, r1.Best.SPSNR, r1.Best.EnergyJ)
	}
	if r1.Best.SPSNR < r1.Flat.SPSNR-1e-9 {
		t.Errorf("best plan S-PSNR %.4f below flat %.4f", r1.Best.SPSNR, r1.Flat.SPSNR)
	}
	if r1.Best.EnergyJ >= r1.Flat.EnergyJ {
		t.Errorf("best plan energy %.4g not below flat %.4g", r1.Best.EnergyJ, r1.Flat.EnergyJ)
	}
	if r1.Best.Bytes > r1.BudgetBytes {
		t.Errorf("best plan spends %d B over the %d B ceiling", r1.Best.Bytes, r1.BudgetBytes)
	}
	if r1.Flat.Bytes != r1.BudgetBytes {
		t.Errorf("flat leg bytes %d should define the ceiling %d", r1.Flat.Bytes, r1.BudgetBytes)
	}
	if want := len(sportCandidatesFast) * len(sportCandidatesFast) * len(sportCandidatesFast); r1.Plans != want {
		t.Errorf("searched %d plans, want %d", r1.Plans, want)
	}
	if len(r1.Best.Plan.Regions) != len(sportRegionBounds) {
		t.Errorf("best plan has %d regions, want %d", len(r1.Best.Plan.Regions), len(sportRegionBounds))
	}
	for i, r := range r1.Best.Plan.Regions {
		if err := r.Format.Validate(); err != nil || r.MaxAbsLatDeg != sportRegionBounds[i] {
			t.Errorf("best plan region %d = %+v, want a valid format up to %v°", i, r, sportRegionBounds[i])
		}
	}
	if r1.Best.DRAMJ <= 0 || r1.Best.DRAMJ != r1.Flat.DRAMJ {
		t.Errorf("DRAM energy should be positive and plan-independent: flat %v, best %v",
			r1.Flat.DRAMJ, r1.Best.DRAMJ)
	}

	r2, err := SPORT(SPORTConfig{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("sweep is not deterministic:\nfirst:  %+v\nsecond: %+v", r1, r2)
	}
}

// An explicit quality target above what any plan can hold must come back
// infeasible with Best falling back to the flat pipeline.
func TestSPORTUnreachableTarget(t *testing.T) {
	r, err := SPORT(SPORTConfig{Fast: true, TargetSPSNR: 98})
	if err != nil {
		t.Fatal(err)
	}
	if r.Feasible {
		t.Fatalf("98 dB target reported feasible: %+v", r.Best)
	}
	if !reflect.DeepEqual(r.Best, r.Flat) {
		t.Errorf("infeasible sweep should fall back to flat, got %+v", r.Best)
	}
	if r.TargetSPSNR != 98 {
		t.Errorf("target not carried through: %v", r.TargetSPSNR)
	}
}

func TestSPORTTableShape(t *testing.T) {
	r, err := SPORT(SPORTConfig{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	tab := SPORTTable(r)
	if tab.ID != "SPORT" {
		t.Errorf("table ID = %q", tab.ID)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("table has %d rows, want 2", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Errorf("row %d has %d cells for %d header columns", i, len(row), len(tab.Header))
		}
	}
	if tab.Rows[0][0] != "flat" || tab.Rows[1][0] != "SPORT" {
		t.Errorf("row labels = %q, %q", tab.Rows[0][0], tab.Rows[1][0])
	}
	if len(tab.Notes) != 3 {
		t.Errorf("table has %d notes, want 3", len(tab.Notes))
	}
}
