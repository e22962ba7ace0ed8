// Package pte simulates the Projective Transformation Engine, the paper's
// specialized SoC IP block for energy-efficient on-device VR rendering (§6).
//
// The engine models the prototype of §7.2 at three levels of fidelity:
//
//   - Datapath: the per-pixel PT pipeline (perspective update → mapping →
//     filtering) is executed bit-accurately in the configured fixed-point
//     format (default [28, 10]), using CORDIC for the transcendental blocks
//     exactly as an RTL implementation would. Fig. 11's error/bitwidth sweep
//     exercises this code.
//   - Timing: PTUs are fully pipelined, accepting one output pixel per cycle
//     each; cycle counts include pipeline fill and DRAM-stall cycles.
//   - Memory: P-MEM (input pixels) and S-MEM (output pixels) are line-buffer
//     scratchpads; row misses generate DRAM traffic, which the device-level
//     energy model charges separately.
//
// The default configuration matches the paper's FPGA prototype: 2 PTUs at
// 100 MHz drawing 194 mW, with 512 KB P-MEM and 256 KB S-MEM.
package pte

import (
	"fmt"
	"sync/atomic"

	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

// Prototype constants from §7.2.
const (
	// PrototypeClockHz is the FPGA prototype's clock.
	PrototypeClockHz = 100e6
	// PrototypePowerW is the post-layout power of the 2-PTU design.
	PrototypePowerW = 0.194
	// PrototypePTUs is the number of PT units instantiated.
	PrototypePTUs = 2
	// PrototypePMEM is the pixel-memory (input line buffer) capacity.
	PrototypePMEM = 512 << 10
	// PrototypeSMEM is the sample-memory (output buffer) capacity.
	PrototypeSMEM = 256 << 10
	// pipelineDepth is the PTU pipeline fill latency in cycles.
	pipelineDepth = 48
	// dmaBytesPerCycle is the DMA engine's transfer width.
	dmaBytesPerCycle = 16
)

// Config is the PTE's memory-mapped register file (§6.2): projection method,
// filter function, viewport geometry, plus the structural parameters fixed
// at design time. The configurability lets one PTE serve all three popular
// projection methods without GPU-style general programmability.
type Config struct {
	Projection projection.Method
	Filter     pt.Filter
	Viewport   projection.Viewport

	Format   fixed.Format // datapath fixed-point format
	NumPTUs  int          // parallel PT units
	ClockHz  float64      // core clock
	PMEMSize int          // input line-buffer bytes
	SMEMSize int          // output buffer bytes
	// CycleEnergyScale scales the per-cycle energy relative to the FPGA
	// prototype (0 means 1.0); an ASIC flow lands well below 1 (§7.2).
	CycleEnergyScale float64
}

// DefaultConfig returns the prototype configuration of §7.2 for a given
// projection/filter/viewport.
func DefaultConfig(m projection.Method, f pt.Filter, vp projection.Viewport) Config {
	return Config{
		Projection: m,
		Filter:     f,
		Viewport:   vp,
		Format:     fixed.Q2810,
		NumPTUs:    PrototypePTUs,
		ClockHz:    PrototypeClockHz,
		PMEMSize:   PrototypePMEM,
		SMEMSize:   PrototypeSMEM,
	}
}

// ASIC scaling factors: §7.2 notes the FPGA results "should be seen as
// lower-bounds as an ASIC flow would yield better energy-efficiency".
// Typical 28 nm FPGA→ASIC conversions run the same RTL several times faster
// at a fraction of the per-cycle energy.
const (
	asicClockScale  = 4.0
	asicEnergyScale = 0.35
)

// ASICConfig projects the prototype onto an ASIC flow: the same RTL at 4×
// the clock with 0.35× the energy per cycle — ~3× less energy per frame,
// delivered 4× faster.
func ASICConfig(m projection.Method, f pt.Filter, vp projection.Viewport) Config {
	cfg := DefaultConfig(m, f, vp)
	cfg.ClockHz *= asicClockScale
	cfg.CycleEnergyScale = asicEnergyScale
	return cfg
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	ref := pt.Config{Projection: c.Projection, Filter: c.Filter, Viewport: c.Viewport}
	if err := ref.Validate(); err != nil {
		return err
	}
	if err := c.Format.Validate(); err != nil {
		return err
	}
	if c.NumPTUs < 1 {
		return fmt.Errorf("pte: need at least one PTU, have %d", c.NumPTUs)
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("pte: clock %v Hz must be positive", c.ClockHz)
	}
	if c.PMEMSize <= 0 || c.SMEMSize <= 0 {
		return fmt.Errorf("pte: scratchpads must be positive (P-MEM %d, S-MEM %d)", c.PMEMSize, c.SMEMSize)
	}
	return nil
}

// baseWattage is the PTE's non-datapath power: clock tree, DMA engine, and
// configuration logic. During passthrough only this share is active.
const baseWattage = 0.030

// PowerW returns the active power of the configured engine. The prototype's
// 194 mW splits into a base (clock tree, DMA, config) share and a per-PTU
// share; scaling PTUs scales only the latter. Power scales linearly with
// clock and with the per-cycle energy of the implementation technology.
func (c Config) PowerW() float64 {
	perPTU := (PrototypePowerW - baseWattage) / PrototypePTUs
	p := baseWattage + perPTU*float64(c.NumPTUs)
	scale := c.CycleEnergyScale
	if scale == 0 {
		scale = 1
	}
	return p * (c.ClockHz / PrototypeClockHz) * scale
}

// Stats accumulates the work performed by an Engine.
type Stats struct {
	Frames          int   // PT frames rendered
	Passthroughs    int   // pre-rendered FOV frames forwarded without PT
	OutputPixels    int64 // pixels produced through the PT datapath
	Cycles          int64 // total cycles including stalls and DMA
	StallCycles     int64 // cycles lost to DRAM refills
	PassthroughCyc  int64 // cycles spent in passthrough DMA (base power only)
	DRAMReadBytes   int64 // input frame traffic into P-MEM
	DRAMWriteBytes  int64 // FOV frame traffic out of S-MEM
	PMEMLineRefills int64 // input row fetches (P-MEM misses)
}

// Engine is a PTE instance. It is not safe for concurrent use; a real SoC
// has one rendering stream per engine.
type Engine struct {
	cfg   Config
	dp    *datapath
	stats Stats
}

// New builds an engine, or reports why the configuration is invalid.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, dp: newDatapath(cfg)}, nil
}

// Stats returns the accumulated work counters.
func (e *Engine) Stats() Stats { return e.stats }

// Render runs the full fixed-point PT for one frame and returns the FOV
// frame: RenderParallel with one worker, i.e. the serial raster scan through
// one P-MEM window of the whole scratchpad. Timing and memory traffic are
// accumulated into Stats. It panics on a nil or empty input frame.
func (e *Engine) Render(full *frame.Frame, o geom.Orientation) *frame.Frame {
	return e.RenderParallel(full, o, 1)
}

// RenderParallel renders with the output viewport banded across a pool of
// workers, the software analogue of the multi-PTU dispatch (§6.2): each PTU
// owns a contiguous band of output rows and a private window of the P-MEM
// scratchpad. workers <= 0 uses NumPTUs. The FOV frame is byte-identical
// for every worker count (the datapath is pure per pixel); the P-MEM refill
// count can differ slightly because band boundaries re-fetch shared input
// rows, exactly as private per-PTU line-buffer windows would. It panics on
// a nil or empty input frame; use RenderParallelChecked to get the error
// instead.
func (e *Engine) RenderParallel(full *frame.Frame, o geom.Orientation, workers int) *frame.Frame {
	out, err := e.RenderParallelChecked(full, o, workers)
	if err != nil {
		panic(err)
	}
	return out
}

// RenderParallelChecked is RenderParallel with up-front validation of the
// input frame.
func (e *Engine) RenderParallelChecked(full *frame.Frame, o geom.Orientation, workers int) (*frame.Frame, error) {
	if err := pt.CheckInput(full); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = e.cfg.NumPTUs
	}
	out := frame.New(e.cfg.Viewport.Width, e.cfg.Viewport.Height)
	e.dp.beginFrame(o, full.W, full.H)
	pmemBank := e.cfg.PMEMSize / pt.BandCount(out.H, workers)
	if pmemBank < 1 {
		pmemBank = 1
	}
	var refills atomic.Int64
	pt.RunBands(out.H, workers, func(j0, j1 int) {
		pmem := newLineBuffer(pmemBank, full.W, full.H)
		e.dp.rows(full, out, pmem, j0, j1)
		refills.Add(pmem.refills)
	})
	e.account(refills.Load(), full.W, out)
	return out, nil
}

// account charges one rendered frame to Stats: compute cycles at one pixel
// per PTU per cycle, P-MEM refill and S-MEM write-back DRAM traffic, and
// the stall cycles of whatever DMA time the compute does not hide.
func (e *Engine) account(refills int64, fullW int, out *frame.Frame) {
	px := int64(out.W) * int64(out.H)
	compute := (px + int64(e.cfg.NumPTUs) - 1) / int64(e.cfg.NumPTUs)
	readBytes := refills * int64(fullW) * 3
	writeBytes := int64(out.Bytes())
	// The line buffers are double-banked, so DMA overlaps compute; only
	// DMA time beyond the compute time stalls the pipeline.
	dma := (readBytes + writeBytes + dmaBytesPerCycle - 1) / dmaBytesPerCycle
	stall := dma - compute
	if stall < 0 {
		stall = 0
	}

	e.stats.Frames++
	e.stats.OutputPixels += px
	e.stats.Cycles += compute + pipelineDepth + stall
	e.stats.StallCycles += stall
	e.stats.DRAMReadBytes += readBytes
	e.stats.DRAMWriteBytes += writeBytes
	e.stats.PMEMLineRefills += refills
}

// Passthrough forwards a pre-rendered FOV frame (a SAS hit, §5.4) to the
// frame buffer: no PT datapath work, only DMA.
func (e *Engine) Passthrough(fov *frame.Frame) *frame.Frame {
	bytes := int64(fov.Bytes())
	cycles := (2*bytes + dmaBytesPerCycle - 1) / dmaBytesPerCycle // in + out
	e.stats.Passthroughs++
	e.stats.Cycles += cycles
	e.stats.PassthroughCyc += cycles
	e.stats.DRAMReadBytes += bytes
	e.stats.DRAMWriteBytes += bytes
	return fov
}

// EnergyJoules returns the PTE-core energy of all work so far: datapath
// cycles at full power, passthrough DMA cycles at base power. DRAM energy
// is charged by the device model from the traffic counters, not here.
func (e *Engine) EnergyJoules() float64 {
	datapath := float64(e.stats.Cycles-e.stats.PassthroughCyc) / e.cfg.ClockHz
	pass := float64(e.stats.PassthroughCyc) / e.cfg.ClockHz
	return datapath*e.cfg.PowerW() + pass*baseWattage
}

// FPS returns the sustained frame rate the engine achieves for its viewport:
// clock divided by per-frame cycles (compute-bound; the prototype reports
// 50 FPS at 100 MHz for the full display, §7.2).
func (c Config) FPS() float64 {
	px := int64(c.Viewport.Pixels())
	compute := (px + int64(c.NumPTUs) - 1) / int64(c.NumPTUs)
	return c.ClockHz / float64(compute+pipelineDepth)
}
