// Package client simulates the EVR playback device (§4, §7.2): a TX2-class
// SoC driving an HMD, playing 360° video under any combination of the
// paper's two primitives —
//
//   - Baseline: stream/decode the full panoramic video and run the
//     projective transformation on the GPU for every frame;
//   - S (SAS only): stream pre-rendered FOV videos, display hits directly,
//     fall back to the original segment (and GPU PT) on FOV misses;
//   - H (HAR only): as Baseline but PT runs on the PTE accelerator;
//   - S+H: SAS hits bypass rendering via PTE passthrough DMA, misses render
//     on the PTE —
//
// across the three use-cases of §8: online streaming, live streaming (no
// server pre-processing, so SAS unavailable), and offline playback (no
// network). Each simulated frame charges the five-component energy ledger
// from the calibrated device model, reproducing the accounting behind
// Figs. 3 and 12–16.
package client

import (
	"fmt"

	"evr/internal/energy"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/netsim"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
	"evr/internal/sas"
	"evr/internal/scene"
)

// Variant selects which EVR primitives are active.
type Variant int

const (
	// Baseline is today's VR video pipeline: full streaming + GPU PT.
	Baseline Variant = iota
	// S enables semantic-aware streaming only.
	S
	// H enables hardware-accelerated rendering only.
	H
	// SH combines both primitives.
	SH
	// Tiled is the view-guided tiled-streaming class of related work the
	// paper contrasts with (§9: Rubiks, Qian et al., Zare et al.): visible
	// tiles stream at full quality and out-of-sight tiles at low quality,
	// saving bandwidth — but every frame still pays the projective
	// transformation on the GPU, so energy barely moves.
	Tiled
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Baseline:
		return "baseline"
	case S:
		return "S"
	case H:
		return "H"
	case SH:
		return "S+H"
	case Tiled:
		return "tiled"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// UseCase selects the §8 deployment scenario.
type UseCase int

const (
	// OnlineStreaming plays published content from the EVR server.
	OnlineStreaming UseCase = iota
	// LiveStreaming plays a live feed: no ingest-time analysis, SAS off.
	LiveStreaming
	// OfflinePlayback plays from local storage: no network at all.
	OfflinePlayback
)

// String implements fmt.Stringer.
func (u UseCase) String() string {
	switch u {
	case OnlineStreaming:
		return "online-streaming"
	case LiveStreaming:
		return "live-streaming"
	case OfflinePlayback:
		return "offline-playback"
	default:
		return fmt.Sprintf("UseCase(%d)", int(u))
	}
}

// Config selects what the simulated device plays and how: the variant and
// use-case, and the §8.5 and beyond-paper knobs. The device itself is the
// paper's evaluation setup — OSVR HDK2 HMD, TX2 device model, 300 Mbps
// WiFi, 4K content — and the SAS geometry is the played plan's own.
type Config struct {
	Variant Variant
	UseCase UseCase

	// ForceAllHits makes every FOV check succeed — the §8.5 idealization
	// where a perfect head-motion predictor lets the server pre-render the
	// exact viewing area for every frame.
	ForceAllHits bool
	// ExtraComputeJPerFrame charges additional per-frame compute energy,
	// e.g. an on-device DNN predictor (§8.5).
	ExtraComputeJPerFrame float64

	// Ext enables the beyond-paper extensions (predictive FOV-video
	// choice, display-processor-fused PTE). Zero value = shipped design.
	Ext Extensions
}

// The simulated device's constants.
const (
	// nominalW/H are the full panoramic frame dimensions the energy model
	// charges for (the paper's videos are 4K: 3840×2160).
	nominalW, nominalH = 3840, 2160

	// prefetchSlackSec is how much of a mid-segment original fetch the
	// client's buffer hides before playback visibly stalls.
	prefetchSlackSec = 0.16

	// checkOverheadJ is the per-frame CPU cost of the SAS client support
	// (§5.4): pose/metadata comparison and dual-pipeline management.
	checkOverheadJ = 1.5e-3

	// resyncSegments is the prefetch pipeline depth: FOV videos are
	// requested this many segments ahead to hide transfer latency, so a
	// fallback leaves a hole of this many segments that must play from the
	// original stream before SAS re-engages.
	resyncSegments = 3

	// tiledByteRatio is the streamed-byte fraction of the Tiled variant
	// relative to full-frame streaming (visible tiles full quality,
	// out-of-sight tiles low quality).
	tiledByteRatio = 0.45
	// tiledPixelRatio is the decoded-pixel fraction of the Tiled variant:
	// low-quality tiles decode at reduced resolution.
	tiledPixelRatio = 0.55
)

// The paper's evaluation device, which Simulate charges and Player drives.
var (
	headset = hmd.OSVRHDK2()
	device  = energy.TX2()
	wifi    = netsim.WiFi300()
	// pteCfg is the accelerator H and S+H render misses on.
	pteCfg = pte.DefaultConfig(projection.ERP, pt.Bilinear, headset.Viewport())
)

// DefaultConfig returns the shipped design for a variant and use-case.
func DefaultConfig(variant Variant, useCase UseCase) Config {
	return Config{Variant: variant, UseCase: useCase}
}

// Validate reports whether the variant can run under the use-case.
func (c Config) Validate() error {
	if (c.Variant == S || c.Variant == SH) && c.UseCase != OnlineStreaming {
		return fmt.Errorf("client: SAS requires online streaming (use case %v)", c.UseCase)
	}
	if c.Variant == Tiled && c.UseCase == OfflinePlayback {
		return fmt.Errorf("client: tiled streaming requires a network use case")
	}
	return nil
}

// Result aggregates one playback run.
type Result struct {
	Ledger    energy.Ledger
	Rebuffers int // blocking mid-segment fetches that stalled playback

	FramesTotal   int
	FramesHit     int // displayed directly from a FOV video
	FramesPT      int // rendered through projective transformation
	FOVChecks     int // frames that ran the FOV checker
	FOVMisses     int // checker misses (before segment fallback)
	DroppedFrames int

	StreamedBytes         int64 // bytes actually fetched
	BaselineStreamedBytes int64 // bytes the baseline would fetch

	// PT-attributable energy, for the Fig. 3b "VR tax" split.
	PTComputeJ float64
	PTMemoryJ  float64
}

// Add accumulates another playback's accounting into r.
func (r *Result) Add(o Result) {
	r.Ledger.Merge(o.Ledger)
	r.Rebuffers += o.Rebuffers
	r.FramesTotal += o.FramesTotal
	r.FramesHit += o.FramesHit
	r.FramesPT += o.FramesPT
	r.FOVChecks += o.FOVChecks
	r.FOVMisses += o.FOVMisses
	r.DroppedFrames += o.DroppedFrames
	r.StreamedBytes += o.StreamedBytes
	r.BaselineStreamedBytes += o.BaselineStreamedBytes
	r.PTComputeJ += o.PTComputeJ
	r.PTMemoryJ += o.PTMemoryJ
}

// MissRate returns the per-frame FOV checker miss rate.
func (r Result) MissRate() float64 {
	if r.FOVChecks == 0 {
		return 0
	}
	return float64(r.FOVMisses) / float64(r.FOVChecks)
}

// FPSDropPct returns the percentage of frames lost to rebuffering.
func (r Result) FPSDropPct() float64 {
	if r.FramesTotal == 0 {
		return 0
	}
	return 100 * float64(r.DroppedFrames) / float64(r.FramesTotal)
}

// BandwidthSavingPct returns the streamed-byte reduction vs the baseline.
func (r Result) BandwidthSavingPct() float64 {
	if r.BaselineStreamedBytes == 0 {
		return 0
	}
	return 100 * (1 - float64(r.StreamedBytes)/float64(r.BaselineStreamedBytes))
}

// Simulate plays one head trace against one video's SAS plan under the
// configured variant/use-case and returns the energy and QoE accounting.
// The plan supplies segment boundaries and byte sizes even when SAS itself
// is disabled.
func Simulate(v scene.VideoSpec, tr headtrace.Trace, plan *sas.Plan, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	sim := &simulator{cfg: cfg, sas: plan.Cfg, video: v}
	sim.run(tr, plan)
	return sim.res, nil
}

// simulator carries per-run state.
type simulator struct {
	cfg   Config
	sas   sas.Config // the played plan's geometry governs hit checking
	video scene.VideoSpec
	res   Result
}

func (s *simulator) frameSeconds() float64 { return 1.0 / float64(s.video.FPS) }

// fullFrameBytes is the raw size of a decoded panoramic frame.
func (s *simulator) fullFrameBytes() int64 {
	return int64(nominalW) * int64(nominalH) * 3
}

// vpBytes is the raw size of a displayed viewport frame.
func (s *simulator) vpBytes() int64 {
	vp := headset.Viewport()
	return int64(vp.Pixels()) * 3
}

// fovFrameBytes is the raw size of a decoded margin-padded FOV frame.
func (s *simulator) fovFrameBytes() int64 {
	scale := (headset.FOVXDeg + s.sas.MarginDeg) / headset.FOVXDeg
	return int64(float64(s.vpBytes()) * scale * scale)
}

func (s *simulator) run(tr headtrace.Trace, plan *sas.Plan) {
	useSAS := (s.cfg.Variant == S || s.cfg.Variant == SH) && s.cfg.UseCase == OnlineStreaming
	usePTE := s.cfg.Variant == H || s.cfg.Variant == SH

	frames := len(tr.Samples)
	resync := 0 // segments left in the prefetch hole after a fallback
	for _, seg := range plan.Segments {
		if seg.Start >= frames {
			break
		}
		segFrames := seg.Frames
		if seg.Start+segFrames > frames {
			segFrames = frames - seg.Start
		}
		s.res.BaselineStreamedBytes += seg.OrigBytes * int64(segFrames) / int64(seg.Frames)

		ti := -1
		if useSAS && resync == 0 && len(seg.Tracks) > 0 {
			ti = s.chooseTrack(&seg, tr)
		}
		if resync > 0 {
			resync--
		}
		if ti < 0 {
			// No SAS (or no FOV videos, or re-syncing after a fallback):
			// stream/read the original segment and render every frame
			// through PT. The Tiled variant streams and decodes less but
			// renders identically — the §9 contrast.
			bytes := seg.OrigBytes
			if s.cfg.Variant == Tiled {
				bytes = int64(float64(bytes) * tiledByteRatio)
			}
			s.fetch(bytes, false)
			for f := 0; f < segFrames; f++ {
				s.chargeFrameBase()
				s.chargePTFrame(usePTE)
			}
			continue
		}

		// SAS path: fetch the chosen FOV video up front.
		s.fetch(seg.FOVBytes[ti], false)
		fallback := false
		for f := 0; f < segFrames; f++ {
			s.chargeFrameBase()
			s.res.FOVChecks++
			s.res.Ledger.Add(energy.Compute, checkOverheadJ)
			hit := s.cfg.ForceAllHits || s.sas.Hit(&seg.Tracks[ti], f, tr.Samples[seg.Start+f].O)
			if !hit {
				s.res.FOVMisses++
			}
			if !fallback && !hit {
				// First miss: re-request the original segment (§5.4). The
				// P-frame chain forces decoding from the segment keyframe,
				// so the already-played prefix is decoded again in
				// catch-up, and the prefetch pipeline loses the next
				// segment's FOV video (re-sync through the original).
				fallback = true
				resync = resyncSegments
				s.fetch(seg.OrigBytes, true)
				s.chargeCatchUpDecode(f + 1)
			}
			if !fallback && hit {
				s.chargeHitFrame()
			} else {
				s.chargePTFrame(usePTE)
			}
		}
	}
	s.res.Ledger.AdvanceTime(float64(s.res.FramesTotal) * s.frameSeconds())
}

// fetch charges network and storage for a payload; blocking mid-segment
// fetches also model the rebuffering stall.
func (s *simulator) fetch(bytes int64, blocking bool) {
	m := device
	switch s.cfg.UseCase {
	case OfflinePlayback:
		// Local playback: the payload is read from storage only.
		s.res.Ledger.Add(energy.Storage, float64(bytes)*m.StorageJPerByte)
	default:
		d := wifi.TransferSeconds(bytes)
		s.res.Ledger.Add(energy.Network, float64(bytes)*m.NetJPerByte)
		// Streamed bytes are cached: written then read back.
		s.res.Ledger.Add(energy.Storage, 2*float64(bytes)*m.StorageJPerByte)
		if blocking {
			stall := d - prefetchSlackSec
			if stall > 0 {
				s.res.Rebuffers++
				s.res.DroppedFrames += int(stall/s.frameSeconds()) + 1
			}
		}
	}
	s.res.StreamedBytes += bytes
}

// chargeFrameBase charges the always-on per-frame costs.
func (s *simulator) chargeFrameBase() {
	m := device
	dt := s.frameSeconds()
	s.res.FramesTotal++
	s.res.Ledger.AddPower(energy.Display, m.DisplayPowerW, dt)
	s.res.Ledger.AddPower(energy.Compute, m.CPUBaseW, dt)
	s.res.Ledger.AddPower(energy.Memory, m.DRAMStaticW, dt)
	if s.cfg.ExtraComputeJPerFrame > 0 {
		s.res.Ledger.Add(energy.Compute, s.cfg.ExtraComputeJPerFrame)
	}
	if s.cfg.UseCase != OfflinePlayback {
		s.res.Ledger.AddPower(energy.Network, m.NetIdleW, dt)
	}
	// Display processor scans out the viewport every frame.
	vp := headset.Viewport()
	s.res.Ledger.Add(energy.Compute, m.DisplayProcJPerPixel*float64(vp.Pixels()))
}

// chargeHitFrame charges a FOV-hit frame: decode the (small) FOV frame and
// forward it to the display, bypassing PT entirely.
func (s *simulator) chargeHitFrame() {
	m := device
	s.res.FramesHit++
	fovPx := float64(s.fovFrameBytes()) / 3
	perFrameBytes := float64(s.fovFrameBytes())
	// Decode: compressed-byte share is charged via segment amortization in
	// decodeBytes below; pixel share here.
	s.res.Ledger.Add(energy.Compute, m.DecodeJPerPixel*fovPx)
	s.res.Ledger.Add(energy.Memory, m.DRAMJPerByte*perFrameBytes) // decode output write
	if s.cfg.Variant == SH {
		// PTE passthrough (Fig. 8): the decoded FOV frame streams to the
		// frame buffer over the zero-copy path of Fig. 2, so only the
		// engine's DMA energy is charged, not a DRAM round trip.
		s.res.Ledger.Add(energy.Compute, pteCfg.PassthroughEnergyJ(s.fovFrameBytes()))
	}
	s.chargeScanout()
	s.decodeBytesShare()
}

// chargeScanout charges the display processor's frame-buffer read.
func (s *simulator) chargeScanout() {
	s.res.Ledger.Add(energy.Memory, device.DRAMJPerByte*float64(s.vpBytes()))
}

// chargePTFrame charges a conventionally-rendered frame: decode the full
// panorama and run PT on the configured engine.
func (s *simulator) chargePTFrame(usePTE bool) {
	m := device
	s.res.FramesPT++
	fullPx := float64(nominalW) * float64(nominalH)
	fullBytes := float64(s.fullFrameBytes())
	decPx, decBytes := fullPx, fullBytes
	if s.cfg.Variant == Tiled {
		// Out-of-sight tiles decode at reduced resolution.
		decPx *= tiledPixelRatio
		decBytes *= tiledPixelRatio
	}
	// Decode the panoramic frame (full or mixed-resolution tiles).
	s.res.Ledger.Add(energy.Compute, m.DecodeJPerPixel*decPx)
	s.res.Ledger.Add(energy.Memory, m.DRAMJPerByte*decBytes) // decode output write
	s.decodeBytesShare()

	// Projective transformation.
	if usePTE {
		secs, rd, wr := pteCfg.FrameWork(nominalW, nominalH)
		if s.cfg.Ext.FusedPTE {
			// Display-processor integration (§6.3): the PT output streams
			// straight to scanout — no FOV-frame write, no re-read.
			wr = 0
		} else {
			s.chargeScanout()
		}
		e := secs * pteCfg.PowerW()
		mem := m.DRAMJPerByte * float64(rd+wr)
		s.res.Ledger.Add(energy.Compute, e)
		s.res.Ledger.Add(energy.Memory, mem)
		s.res.PTComputeJ += e
		s.res.PTMemoryJ += mem
	} else {
		e := energy.GPUFrameJ(headset.Viewport().Pixels())
		mem := m.DRAMJPerByte * (fullBytes + float64(s.vpBytes()))
		s.res.Ledger.Add(energy.Compute, e)
		s.res.Ledger.Add(energy.Memory, mem)
		s.res.PTComputeJ += e
		s.res.PTMemoryJ += mem
		s.chargeScanout()
	}
}

// chargeCatchUpDecode charges the fast-forward decode of a fallback
// segment's already-played prefix (the original segment is only decodable
// from its keyframe).
func (s *simulator) chargeCatchUpDecode(prefixFrames int) {
	m := device
	fullPx := float64(nominalW) * float64(nominalH)
	fullBytes := float64(s.fullFrameBytes())
	s.res.Ledger.Add(energy.Compute, m.DecodeJPerPixel*fullPx*float64(prefixFrames))
	s.res.Ledger.Add(energy.Memory, m.DRAMJPerByte*fullBytes*float64(prefixFrames))
}

// decodeBytesShare charges the per-compressed-byte decode energy, amortized
// as one frame's share of the video's nominal bitrate.
func (s *simulator) decodeBytesShare() {
	m := device
	bytesPerFrame := energy.NominalBitrateMbps(s.video.Complexity) * 1e6 / 8 / float64(s.video.FPS)
	if s.cfg.Variant == Tiled {
		bytesPerFrame *= tiledByteRatio
	}
	s.res.Ledger.Add(energy.Compute, m.DecodeJPerByte*bytesPerFrame)
}
