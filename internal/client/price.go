package client

import (
	"evr/internal/energy"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
)

// The price list of a playback event, in joules, per the calibrated TX2
// model (§8.1): Simulate and Player.Play charge only through these methods.
//
// Scale rule: pixel work is priced at the nominal geometry — the 3840×2160
// panorama, the HMD's full viewport (headset.Viewport()), and the FOV
// frame that viewport scaled by the played FOV's width over the HMD's on
// each axis — whatever size a Player decodes and renders at. Wire bytes
// are priced as received.

const (
	// nominalW/H are the full panoramic frame dimensions the energy model
	// charges for (the paper's videos are 4K: 3840×2160), panoramaBytes a
	// decoded panorama's raw size.
	nominalW, nominalH = 3840, 2160
	panoramaBytes      = nominalW * nominalH * 3

	// checkOverheadJ is the per-frame CPU cost of the SAS client support
	// (§5.4): pose/metadata comparison and dual-pipeline management.
	checkOverheadJ = 1.5e-3
)

var (
	device = energy.TX2()
	// pteCfg is the accelerator H and S+H render misses on.
	pteCfg = pte.DefaultConfig(projection.ERP, pt.Bilinear, headset.Viewport())
	// viewportBytes is the raw size of a displayed viewport frame.
	viewportBytes = int64(headset.Viewport().Pixels()) * 3
)

// fovFrameBytes is the raw size of a decoded FOV frame fovXDeg wide: the
// viewport scaled by fovXDeg over the HMD's field of view on each axis.
func fovFrameBytes(fovXDeg float64) int64 {
	scale := fovXDeg / headset.FOVXDeg
	return int64(float64(viewportBytes) * scale * scale)
}

// Energy is one playback's priced events: the five-component ledger and
// the share projective transformation caused (the Fig. 3b "VR tax").
type Energy struct {
	Ledger     energy.Ledger
	PTComputeJ float64
	PTMemoryJ  float64
}

// Add merges another playback's energy into e.
func (e *Energy) Add(o Energy) {
	e.Ledger.Merge(o.Ledger)
	e.PTComputeJ += o.PTComputeJ
	e.PTMemoryJ += o.PTMemoryJ
}

// ComputeMemoryJ returns the compute+memory energy — the paper's "compute
// energy" axis in Figs. 12 and 15.
func (e Energy) ComputeMemoryJ() float64 {
	return e.Ledger.Joules(energy.Compute) + e.Ledger.Joules(energy.Memory)
}

// PTShare returns PT's fraction of compute+memory energy (Fig. 3b).
func (e Energy) PTShare() float64 {
	cm := e.ComputeMemoryJ()
	if cm == 0 {
		return 0
	}
	return (e.PTComputeJ + e.PTMemoryJ) / cm
}

// chargeReceived prices payload bytes reaching the device: radio receive
// and the cache write and read-back, or a storage read alone offline.
func (e *Energy) chargeReceived(bytes int64, offline bool) {
	if offline {
		e.Ledger.Add(energy.Storage, float64(bytes)*device.StorageJPerByte)
		return
	}
	e.Ledger.Add(energy.Network, float64(bytes)*device.NetJPerByte)
	e.Ledger.Add(energy.Storage, 2*float64(bytes)*device.StorageJPerByte)
}

// chargeFrame prices the always-on costs of one displayed frame dt seconds
// long: panel, SoC base load, DRAM background, any extra per-frame compute,
// the radio's idle floor when networked, and the display processor's
// viewport scan.
func (e *Energy) chargeFrame(dt, extraJ float64, offline bool) {
	e.Ledger.AddPower(energy.Display, device.DisplayPowerW, dt)
	e.Ledger.AddPower(energy.Compute, device.CPUBaseW, dt)
	e.Ledger.AddPower(energy.Memory, device.DRAMStaticW, dt)
	if extraJ > 0 {
		e.Ledger.Add(energy.Compute, extraJ)
	}
	if !offline {
		e.Ledger.AddPower(energy.Network, device.NetIdleW, dt)
	}
	e.Ledger.Add(energy.Compute, device.DisplayProcJPerPixel*float64(headset.Viewport().Pixels()))
}

// chargeFOVCheck prices the FOV check of one frame.
func (e *Energy) chargeFOVCheck() { e.Ledger.Add(energy.Compute, checkOverheadJ) }

// chargeDecode prices decoding one frame of px pixels: the codec's
// per-pixel work and the raw output written to DRAM.
func (e *Energy) chargeDecode(px, rawBytes float64) {
	e.Ledger.Add(energy.Compute, device.DecodeJPerPixel*px)
	e.Ledger.Add(energy.Memory, device.DRAMJPerByte*rawBytes)
}

// chargeDecodeBytes prices the codec's per-compressed-byte work.
func (e *Energy) chargeDecodeBytes(compressed float64) {
	e.Ledger.Add(energy.Compute, device.DecodeJPerByte*compressed)
}

// chargeHit prices a FOV-hit frame: decode the FOV frame and forward it to
// the display, bypassing PT. With passthrough (the PTE present, Fig. 8)
// the frame streams to the frame buffer over the zero-copy path of Fig. 2,
// so only the engine's DMA energy is charged, not a DRAM round trip.
func (e *Energy) chargeHit(fovBytes int64, passthrough bool) {
	e.chargeDecode(float64(fovBytes)/3, float64(fovBytes))
	if passthrough {
		e.Ledger.Add(energy.Compute, pteCfg.PassthroughEnergyJ(fovBytes))
	}
	e.chargeScanout()
}

// chargeScanout prices the display processor's frame-buffer read.
func (e *Energy) chargeScanout() {
	e.Ledger.Add(energy.Memory, device.DRAMJPerByte*float64(viewportBytes))
}

// chargePTE prices one PT frame on the PTE. fused is the display-processor
// integration (§6.3): the PT output streams straight to scanout, with no
// FOV-frame write and no re-read.
func (e *Energy) chargePTE(fused bool) {
	secs, rd, wr := pteCfg.FrameWork(nominalW, nominalH)
	if fused {
		wr = 0
	} else {
		e.chargeScanout()
	}
	j := secs * pteCfg.PowerW()
	mem := device.DRAMJPerByte * float64(rd+wr)
	e.Ledger.Add(energy.Compute, j)
	e.Ledger.Add(energy.Memory, mem)
	e.PTComputeJ += j
	e.PTMemoryJ += mem
}

// chargeGPU prices one PT frame on the mobile GPU: the shaded viewport,
// the panorama texture read and the output write, then scanout.
func (e *Energy) chargeGPU() {
	j := energy.GPUFrameJ(headset.Viewport().Pixels())
	mem := device.DRAMJPerByte * (float64(panoramaBytes) + float64(viewportBytes))
	e.Ledger.Add(energy.Compute, j)
	e.Ledger.Add(energy.Memory, mem)
	e.PTComputeJ += j
	e.PTMemoryJ += mem
	e.chargeScanout()
}

// chargeCatchUp prices the fast-forward decode of a fallback's original
// segment up to where it joins: the original is only decodable from its
// keyframe, so frames panoramas are decoded that nobody sees.
func (e *Energy) chargeCatchUp(frames int) {
	fullPx := float64(nominalW) * float64(nominalH)
	e.Ledger.Add(energy.Compute, device.DecodeJPerPixel*fullPx*float64(frames))
	e.Ledger.Add(energy.Memory, device.DRAMJPerByte*float64(panoramaBytes)*float64(frames))
}
