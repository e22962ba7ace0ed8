package pte

import (
	"math"
	"math/rand"
	"testing"

	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

func testViewport() projection.Viewport {
	return projection.Viewport{Width: 48, Height: 48, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
}

// smoothFrame builds a low-frequency full frame: smooth gradients stress the
// arithmetic precision without aliasing dominating the comparison.
func smoothFrame(w, h int) *frame.Frame {
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := byte(128 + 100*math.Sin(2*math.Pi*float64(x)/float64(w)))
			g := byte(128 + 100*math.Cos(math.Pi*float64(y)/float64(h)))
			b := byte((x + y) * 255 / (w + h))
			f.Set(x, y, r, g, b)
		}
	}
	return f
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := DefaultConfig(projection.ERP, pt.Bilinear, testViewport())
	bad.NumPTUs = 0
	if _, err := New(bad); err == nil {
		t.Error("zero PTUs accepted")
	}
	bad = DefaultConfig(projection.ERP, pt.Bilinear, testViewport())
	bad.Format = fixed.Format{TotalBits: 99, IntBits: 1}
	if _, err := New(bad); err == nil {
		t.Error("invalid format accepted")
	}
	bad = DefaultConfig(projection.ERP, pt.Bilinear, testViewport())
	bad.ClockHz = 0
	if _, err := New(bad); err == nil {
		t.Error("zero clock accepted")
	}
	bad = DefaultConfig(projection.ERP, pt.Bilinear, testViewport())
	bad.PMEMSize = 0
	if _, err := New(bad); err == nil {
		t.Error("zero P-MEM accepted")
	}
}

func TestPrototypePower(t *testing.T) {
	cfg := DefaultConfig(projection.ERP, pt.Bilinear, testViewport())
	if got := cfg.PowerW(); math.Abs(got-PrototypePowerW) > 1e-12 {
		t.Errorf("2-PTU power = %v, want %v", got, PrototypePowerW)
	}
	cfg.NumPTUs = 4
	if got := cfg.PowerW(); got <= PrototypePowerW {
		t.Errorf("4-PTU power %v should exceed 2-PTU power", got)
	}
}

func TestFixedPointMatchesReferenceWithin1e3(t *testing.T) {
	// The paper's design criterion (Fig. 11): with [28, 10] the average
	// pixel error vs the full-precision result stays below 1e-3.
	full := smoothFrame(256, 128)
	o := geom.Orientation{Yaw: geom.Radians(35), Pitch: geom.Radians(-12)}
	for _, m := range projection.Methods {
		for _, flt := range []pt.Filter{pt.Nearest, pt.Bilinear} {
			cfg := DefaultConfig(m, flt, testViewport())
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := e.Render(full, o)
			want := pt.Render(pt.Config{Projection: m, Filter: flt, Viewport: cfg.Viewport}, full, o)
			if mae := frame.MAE(got, want); mae > 1e-3 {
				t.Errorf("%v/%v: MAE %v above 1e-3", m, flt, mae)
			}
		}
	}
}

func TestErrorGrowsWithNarrowerFormat(t *testing.T) {
	full := smoothFrame(128, 64)
	o := geom.Orientation{Yaw: 0.4, Pitch: 0.1}
	vp := testViewport()
	ref := pt.Render(pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: vp}, full, o)
	maeFor := func(f fixed.Format) float64 {
		cfg := DefaultConfig(projection.ERP, pt.Bilinear, vp)
		cfg.Format = f
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return frame.MAE(e.Render(full, o), ref)
	}
	wide := maeFor(fixed.Format{TotalBits: 40, IntBits: 10})
	narrow := maeFor(fixed.Format{TotalBits: 18, IntBits: 10})
	if narrow <= wide {
		t.Errorf("narrow format MAE %v should exceed wide format MAE %v", narrow, wide)
	}
	// Starving the integer section saturates π and pixel values: huge error.
	starved := maeFor(fixed.Format{TotalBits: 28, IntBits: 3})
	if starved < 0.02 {
		t.Errorf("integer-starved format MAE %v suspiciously low", starved)
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := DefaultConfig(projection.ERP, pt.Nearest, testViewport())
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := smoothFrame(128, 64)
	e.Render(full, geom.Orientation{})
	s := e.Stats()
	if s.Frames != 1 || s.Passthroughs != 0 {
		t.Errorf("frame counters = %+v", s)
	}
	wantPx := int64(48 * 48)
	if s.OutputPixels != wantPx {
		t.Errorf("pixels = %d, want %d", s.OutputPixels, wantPx)
	}
	minCycles := wantPx / int64(cfg.NumPTUs)
	if s.Cycles < minCycles {
		t.Errorf("cycles %d below compute bound %d", s.Cycles, minCycles)
	}
	if s.DRAMWriteBytes != wantPx*3 {
		t.Errorf("write bytes = %d, want %d", s.DRAMWriteBytes, wantPx*3)
	}
	if s.DRAMReadBytes <= 0 || s.PMEMLineRefills <= 0 {
		t.Error("no input traffic recorded")
	}
	// Line-buffer locality: refills must be well below total fetches.
	if s.PMEMLineRefills >= wantPx {
		t.Errorf("refills %d not amortized over %d fetches", s.PMEMLineRefills, wantPx)
	}
}

func TestPassthrough(t *testing.T) {
	cfg := DefaultConfig(projection.ERP, pt.Nearest, testViewport())
	e, _ := New(cfg)
	fov := frame.New(48, 48)
	for i := 0; i < len(fov.Pix); i += 3 {
		fov.Pix[i], fov.Pix[i+1], fov.Pix[i+2] = 1, 2, 3
	}
	out := e.Passthrough(fov)
	if !out.Equal(fov) {
		t.Error("passthrough altered the frame")
	}
	s := e.Stats()
	if s.Passthroughs != 1 || s.Frames != 0 || s.OutputPixels != 0 {
		t.Errorf("passthrough stats = %+v", s)
	}
	if s.DRAMReadBytes != int64(fov.Bytes()) || s.DRAMWriteBytes != int64(fov.Bytes()) {
		t.Errorf("passthrough traffic = %+v", s)
	}
}

func TestPassthroughMuchCheaperThanRender(t *testing.T) {
	cfg := DefaultConfig(projection.ERP, pt.Bilinear, testViewport())
	full := smoothFrame(256, 128)
	render, _ := New(cfg)
	render.Render(full, geom.Orientation{})
	pass, _ := New(cfg)
	pass.Passthrough(frame.New(48, 48))
	if pass.EnergyJoules()*2 >= render.EnergyJoules() {
		t.Errorf("passthrough energy %v not well below render energy %v",
			pass.EnergyJoules(), render.EnergyJoules())
	}
}

func TestPrototypeFPSAbout50(t *testing.T) {
	// §7.2: 2 PTUs at 100 MHz sustain ~50 FPS for the full 2560×1440 display.
	cfg := DefaultConfig(projection.ERP, pt.Bilinear,
		projection.Viewport{Width: 2560, Height: 1440, FOVX: geom.Radians(110), FOVY: geom.Radians(110)})
	fps := cfg.FPS()
	if fps < 45 || fps > 60 {
		t.Errorf("prototype FPS = %v, want ≈50", fps)
	}
}

func TestEnergyScalesWithWork(t *testing.T) {
	cfg := DefaultConfig(projection.ERP, pt.Nearest, testViewport())
	full := smoothFrame(128, 64)
	one, _ := New(cfg)
	one.Render(full, geom.Orientation{})
	three, _ := New(cfg)
	for k := 0; k < 3; k++ {
		three.Render(full, geom.Orientation{})
	}
	ratio := three.EnergyJoules() / one.EnergyJoules()
	if math.Abs(ratio-3) > 0.01 {
		t.Errorf("3-frame/1-frame energy ratio = %v, want 3", ratio)
	}
}

func TestLineBufferSequentialRows(t *testing.T) {
	lb := newLineBuffer(10*3*4, 4, 10) // 10 rows of a 4-wide frame
	for row := 0; row < 10; row++ {
		lb.touch(row)
		lb.touch(row) // second touch must hit
	}
	if lb.refills != 10 {
		t.Errorf("refills = %d, want 10", lb.refills)
	}
}

func TestLineBufferLRUEviction(t *testing.T) {
	lb := newLineBuffer(2*3*4, 4, 3) // capacity 2 rows
	lb.touch(0)
	lb.touch(1)
	lb.touch(0) // refresh row 0
	lb.touch(2) // evicts row 1 (LRU)
	lb.touch(0) // still resident
	if lb.refills != 3 {
		t.Errorf("refills = %d, want 3", lb.refills)
	}
	lb.touch(1) // was evicted, refill again
	if lb.refills != 4 {
		t.Errorf("refills = %d, want 4", lb.refills)
	}
}

func TestLineBufferMinimumCapacity(t *testing.T) {
	lb := newLineBuffer(1, 4096, 2) // smaller than one row
	lb.touch(0)
	lb.touch(1)
	lb.touch(0)
	if lb.refills != 3 {
		t.Errorf("capacity-1 buffer refills = %d, want 3", lb.refills)
	}
}

// mapLRU is the P-MEM model as it was first written — a map of last-touch
// stamps, evicting by a scan for the oldest — kept as the oracle for the
// O(1) recency list.
type mapLRU struct {
	capacity int
	resident map[int]int64
	clock    int64
	refills  int64
}

func (m *mapLRU) touch(row int) {
	m.clock++
	if _, ok := m.resident[row]; ok {
		m.resident[row] = m.clock
		return
	}
	m.refills++
	if len(m.resident) >= m.capacity {
		oldest, oldestAt := -1, int64(1<<62)
		for r, at := range m.resident {
			if at < oldestAt {
				oldest, oldestAt = r, at
			}
		}
		delete(m.resident, oldest)
	}
	m.resident[row] = m.clock
}

// TestLineBufferMatchesMapLRU drives both models with the same seeded touch
// sequences — a drifting 2-row stencil with occasional jumps, the shape of
// the filtering stage's accesses — at capacities below, at and above the
// working set, and requires the same refill count after every touch.
func TestLineBufferMatchesMapLRU(t *testing.T) {
	const rows, width = 96, 64
	for _, capacity := range []int{1, 2, 45, rows + 10} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		lb := newLineBuffer(capacity*width*3, width, rows)
		ref := &mapLRU{capacity: capacity, resident: map[int]int64{}}
		if lb.capacity != capacity {
			t.Fatalf("capacity = %d, want %d", lb.capacity, capacity)
		}
		at := rows / 2
		for n := 0; n < 20000; n++ {
			switch p := rng.Intn(100); {
			case p < 3:
				at = rng.Intn(rows)
			case p < 30:
				at = min(max(at+rng.Intn(3)-1, 0), rows-1)
			}
			for _, row := range []int{at, at, min(at+1, rows-1), min(at+1, rows-1)} {
				lb.touch(row)
				ref.touch(row)
				if lb.refills != ref.refills {
					t.Fatalf("capacity %d, touch %d (row %d): refills = %d, map LRU %d", capacity, n, row, lb.refills, ref.refills)
				}
			}
		}
		if lb.refills == 0 {
			t.Fatalf("capacity %d: no refills", capacity)
		}
	}
}

func TestRenderDeterministicAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	full := frame.New(96, 48)
	for i := range full.Pix {
		full.Pix[i] = byte(rng.Intn(256))
	}
	cfg := DefaultConfig(projection.CMP, pt.Bilinear, testViewport())
	a, _ := New(cfg)
	b, _ := New(cfg)
	o := geom.Orientation{Yaw: -0.7, Pitch: 0.2}
	if !a.Render(full, o).Equal(b.Render(full, o)) {
		t.Error("two engines disagree on identical input")
	}
}

func TestASICProjection(t *testing.T) {
	vp := projection.Viewport{Width: 2560, Height: 1440, FOVX: geom.Radians(110), FOVY: geom.Radians(110)}
	fpga := DefaultConfig(projection.ERP, pt.Bilinear, vp)
	asic := ASICConfig(projection.ERP, pt.Bilinear, vp)
	// §7.2: the FPGA numbers are lower bounds — the ASIC must be faster
	// and spend less energy per frame.
	if asic.FPS() <= fpga.FPS() {
		t.Errorf("ASIC FPS %v not above FPGA %v", asic.FPS(), fpga.FPS())
	}
	eFPGA := fpga.FrameEnergyJ(3840, 2160)
	eASIC := asic.FrameEnergyJ(3840, 2160)
	if eASIC >= eFPGA {
		t.Errorf("ASIC frame energy %v not below FPGA %v", eASIC, eFPGA)
	}
	if ratio := eFPGA / eASIC; ratio < 1.5 || ratio > 6 {
		t.Errorf("ASIC energy advantage %vx implausible", ratio)
	}
	// FPGA config is unchanged by the scaling knob's zero value.
	if math.Abs(fpga.PowerW()-PrototypePowerW) > 1e-12 {
		t.Errorf("FPGA power drifted: %v", fpga.PowerW())
	}
}
