package conformance

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"

	"evr/internal/projection"
)

const goldenPath = "testdata/golden.json"

var (
	fastOnce sync.Once
	fastMan  *Manifest
	fastErr  error
)

// fastManifest generates the fast-subset manifest once and shares it across
// tests: every case render also exercises the byte-identity invariants, so
// there is no value in repeating the work per test.
func fastManifest(t *testing.T) *Manifest {
	t.Helper()
	fastOnce.Do(func() { fastMan, fastErr = Generate(FastCorpus()) })
	if fastErr != nil {
		t.Fatalf("generating fast corpus: %v", fastErr)
	}
	return fastMan
}

func TestCorpusShape(t *testing.T) {
	cases := Corpus()
	want := len(projection.Methods) * 2 * len(corpusPoses())
	if len(cases) != want {
		t.Fatalf("Corpus has %d cases, want %d", len(cases), want)
	}
	names := map[string]bool{}
	labels := map[string]int{}
	for _, c := range cases {
		if names[c.Name] {
			t.Fatalf("duplicate case name %q", c.Name)
		}
		names[c.Name] = true
		labels[c.Label]++
		if c.Workers < 2 {
			t.Fatalf("%s: workers %d, want >= 2 so parallel identity is a real check", c.Name, c.Workers)
		}
		if err := c.PTConfig().Validate(); err != nil {
			t.Fatalf("%s: invalid config: %v", c.Name, err)
		}
	}
	for _, l := range []string{"identity", "pole", "seam", "edge", "rolled", "random"} {
		if labels[l] == 0 {
			t.Fatalf("no cases with label %q", l)
		}
	}
	fast := FastCorpus()
	if len(fast) == 0 || len(fast) >= len(cases) {
		t.Fatalf("FastCorpus has %d cases (full %d); want a strict nonempty subset", len(fast), len(cases))
	}
	for _, c := range fast {
		if !c.Fast {
			t.Fatalf("FastCorpus includes non-fast case %s", c.Name)
		}
	}
}

// TestGoldenManifestFastSubset is the in-process version of the CI gate:
// the committed golden manifest must agree with a fresh render of the fast
// subset, checksum for checksum and metric for metric, within the in-code
// budgets.
func TestGoldenManifestFastSubset(t *testing.T) {
	stored, err := Load(goldenPath)
	if err != nil {
		t.Fatalf("loading %s: %v (run `go run ./cmd/evrconform -update`)", goldenPath, err)
	}
	if len(stored.Cases) != len(Corpus()) {
		t.Fatalf("golden manifest has %d cases, corpus has %d (run `go run ./cmd/evrconform -update`)",
			len(stored.Cases), len(Corpus()))
	}
	fresh := fastManifest(t)
	if v := Compare(stored, fresh); len(v) > 0 {
		t.Fatalf("fast subset diverges from golden manifest:\n  %s", strings.Join(v, "\n  "))
	}
}

// tamperedCopy returns a deep-enough copy of m that Cases and Inputs can be
// mutated without aliasing the original.
func tamperedCopy(m *Manifest) *Manifest {
	c := *m
	c.Cases = append([]Entry(nil), m.Cases...)
	c.Inputs = make(map[string]InputInfo, len(m.Inputs))
	for k, v := range m.Inputs {
		c.Inputs[k] = v
	}
	return &c
}

// flipBit flips the lowest bit of a hex-encoded checksum — the smallest
// possible corruption of a golden vector.
func flipBit(t *testing.T, hexsum string) string {
	t.Helper()
	v, err := strconv.ParseUint(hexsum, 16, 64)
	if err != nil {
		t.Fatalf("parsing checksum %q: %v", hexsum, err)
	}
	return hex64(v ^ 1)
}

// TestTamperedGoldenFailsGate is the acceptance-criteria check: a one-bit
// perturbation of a stored golden checksum must make the conformance gate
// fail. A clean pass against the tampered manifest would mean the gate never
// actually compares the vectors.
func TestTamperedGoldenFailsGate(t *testing.T) {
	stored, err := Load(goldenPath)
	if err != nil {
		t.Fatalf("loading %s: %v", goldenPath, err)
	}
	fresh := fastManifest(t)
	if v := Compare(stored, fresh); len(v) > 0 {
		t.Fatalf("pristine manifest must pass before tampering: %v", v)
	}
	victim := fresh.Cases[0].Name

	tamper := []struct {
		what  string
		mutct func(*Entry)
	}{
		{"pt checksum", func(e *Entry) { e.Checksum = flipBit(t, e.Checksum) }},
		{"pte checksum", func(e *Entry) { e.PTEChecksum = flipBit(t, e.PTEChecksum) }},
		{"MAE metric", func(e *Entry) { e.MAE += 1e-6 }},
		{"max abs error", func(e *Entry) { e.MaxAbsErr++ }},
	}
	for _, tc := range tamper {
		t.Run(tc.what, func(t *testing.T) {
			bad := tamperedCopy(stored)
			found := false
			for i := range bad.Cases {
				if bad.Cases[i].Name == victim {
					tc.mutct(&bad.Cases[i])
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("fast case %s not present in golden manifest", victim)
			}
			v := Compare(bad, fresh)
			if len(v) == 0 {
				t.Fatalf("gate passed against a manifest with a tampered %s for %s", tc.what, victim)
			}
			if !strings.Contains(strings.Join(v, "\n"), victim) {
				t.Fatalf("violations do not name the tampered case %s: %v", victim, v)
			}
		})
	}

	t.Run("input fingerprint", func(t *testing.T) {
		bad := tamperedCopy(stored)
		in := bad.Inputs[projection.ERP.String()]
		in.Checksum = flipBit(t, in.Checksum)
		bad.Inputs[projection.ERP.String()] = in
		if v := Compare(bad, fresh); len(v) == 0 {
			t.Fatal("gate passed against a manifest with a tampered input fingerprint")
		}
	})

	t.Run("missing case", func(t *testing.T) {
		bad := tamperedCopy(stored)
		kept := bad.Cases[:0]
		for _, e := range bad.Cases {
			if e.Name != victim {
				kept = append(kept, e)
			}
		}
		bad.Cases = kept
		if v := Compare(bad, fresh); len(v) == 0 {
			t.Fatalf("gate passed against a manifest missing case %s", victim)
		}
	})
}

// TestBudgetViolationsDetected pins that budgets are enforced from code, not
// from the (attacker-editable) manifest copy: inflating an entry's measured
// divergence past its class budget must trip BudgetViolations even though
// the entry's own Budget field still holds the loose original values.
func TestBudgetViolationsDetected(t *testing.T) {
	fresh := fastManifest(t)
	if v := fresh.BudgetViolations(); len(v) > 0 {
		t.Fatalf("fresh manifest violates budgets: %v", v)
	}
	bad := tamperedCopy(fresh)
	e := &bad.Cases[0]
	e.MAE = 0.5
	e.PSNR = 3
	e.SSIM = 0.1
	e.DiffFrac = 1
	e.MaxAbsErr = 255
	e.Budget = Budget{MaxMAE: 1, MinPSNR: 0, MinSSIM: 0, MaxDiffFrac: 1, MaxAbsErr: 255} // loosened copy must be ignored
	v := bad.BudgetViolations()
	if len(v) < 4 {
		t.Fatalf("expected >= 4 budget violations for a saturated entry, got %d: %v", len(v), v)
	}
}

// TestChecksumSensitivity pins the golden fingerprint itself: any one-byte
// pixel change and any dimension change must alter the FNV-1a checksum.
func TestChecksumSensitivity(t *testing.T) {
	f := InputFrame(projection.ERP)
	base := Checksum(f)
	cp := f.Clone()
	cp.Pix[len(cp.Pix)/2] ^= 1
	if Checksum(cp) == base {
		t.Fatal("one-bit pixel perturbation did not change the checksum")
	}
	cp.Pix[len(cp.Pix)/2] ^= 1
	if Checksum(cp) != base {
		t.Fatal("checksum is not a pure function of dims+pixels")
	}
	// Same byte stream, transposed dims: the fingerprint must include shape.
	a := InputFrame(projection.CMP)
	b := a.Clone()
	b.W, b.H = a.H, a.W
	if Checksum(a) == Checksum(b) {
		t.Fatal("checksum ignores frame dimensions")
	}
}

// TestGenerateDeterminism pins that the whole pipeline — scene synthesis,
// every render path, metrics, JSON encoding — is bit-reproducible: the
// regenerate-and-diff CI gate is only sound if two runs encode identically.
func TestGenerateDeterminism(t *testing.T) {
	a := fastManifest(t)
	b, err := Generate(FastCorpus())
	if err != nil {
		t.Fatalf("second generation: %v", err)
	}
	ea, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatal("two generations of the fast corpus encode differently")
	}
}
