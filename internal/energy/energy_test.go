package energy

import (
	"math"
	"testing"
)

func TestComponentString(t *testing.T) {
	want := map[Component]string{
		Display: "display", Network: "network", Storage: "storage",
		Memory: "memory", Compute: "compute",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if Component(99).String() != "Component(99)" {
		t.Error("unknown component string broken")
	}
	if len(Components) != 5 {
		t.Error("expected 5 components")
	}
}

func TestLedgerAccumulation(t *testing.T) {
	var l Ledger
	l.Add(Display, 1.5)
	l.Add(Display, 0.5)
	l.AddPower(Compute, 2.0, 3.0)
	if got := l.Joules(Display); got != 2.0 {
		t.Errorf("display J = %v", got)
	}
	if got := l.Joules(Compute); got != 6.0 {
		t.Errorf("compute J = %v", got)
	}
	if got := l.Total(); got != 8.0 {
		t.Errorf("total = %v", got)
	}
	if got := l.Share(Compute); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("compute share = %v", got)
	}
}

func TestLedgerTime(t *testing.T) {
	var l Ledger
	l.AdvanceTime(2)
	l.Add(Memory, 10)
	if got := l.AveragePowerW(); got != 5 {
		t.Errorf("average power = %v", got)
	}
	if l.seconds != 2 {
		t.Errorf("seconds = %v", l.seconds)
	}
}

func TestLedgerZeroSafe(t *testing.T) {
	var l Ledger
	if l.Share(Display) != 0 || l.AveragePowerW() != 0 || l.Total() != 0 {
		t.Error("empty ledger not zero")
	}
}

func TestLedgerNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative charge accepted")
		}
	}()
	var l Ledger
	l.Add(Display, -1)
}

func TestLedgerMerge(t *testing.T) {
	var a, b Ledger
	a.Add(Display, 1)
	a.AdvanceTime(1)
	b.Add(Display, 2)
	b.Add(Network, 3)
	b.AdvanceTime(2)
	a.Merge(b)
	if a.Joules(Display) != 3 || a.Joules(Network) != 3 || a.seconds != 3 {
		t.Errorf("merge wrong: %+v", a)
	}
}

func TestTX2ModelSanity(t *testing.T) {
	m := TX2()
	if m.DisplayPowerW <= 0 || m.NetJPerByte <= 0 || m.StorageJPerByte <= 0 ||
		m.DRAMStaticW <= 0 || m.DRAMJPerByte <= 0 || m.CPUBaseW <= 0 ||
		m.DecodeJPerByte <= 0 || m.DecodeJPerPixel <= 0 || m.DisplayProcJPerPixel <= 0 {
		t.Fatal("model has non-positive constants")
	}
	// Display, network, storage must be minor players (Fig. 3a): each well
	// under 0.5 W while compute-side constants dominate at 4K rates.
	if m.DisplayPowerW > 0.5 {
		t.Error("display power too high for the Fig. 3a split")
	}
	if MobileTDP != 3.5 {
		t.Error("TDP constant changed")
	}
}

func TestGPUFrameJ(t *testing.T) {
	got := GPUFrameJ(1600)
	want := 1600.0/150e6*1.80 + 5e-3
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("GPUFrameJ = %v, want %v", got, want)
	}
}

func TestGPUEnergyExceedsPTEClassPower(t *testing.T) {
	// The premise of HAR: for the same PT work the GPU burns roughly an
	// order of magnitude more power than the 194 mW PTE.
	if GPUActivePowerW < 0.194*5 {
		t.Errorf("GPU active power %v W implausibly close to PTE's 0.194 W", GPUActivePowerW)
	}
}

func TestNominalBitrateMonotone(t *testing.T) {
	prev := 0.0
	for c := 0.1; c <= 1.0; c += 0.1 {
		b := NominalBitrateMbps(c)
		if b <= prev {
			t.Fatalf("bitrate not increasing at %v", c)
		}
		prev = b
	}
	if lo := NominalBitrateMbps(0.3); lo < 10 || lo > 40 {
		t.Errorf("low-complexity bitrate %v implausible", lo)
	}
	if hi := NominalBitrateMbps(1.0); hi < 40 || hi > 100 {
		t.Errorf("high-complexity bitrate %v implausible", hi)
	}
}
