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
	"math"

	"evr/internal/energy"
	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/hmd"
	"evr/internal/netsim"
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
	if names := [...]string{"baseline", "S", "H", "S+H", "tiled"}; v >= 0 && int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("Variant(%d)", int(v))
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
	if names := [...]string{"online-streaming", "live-streaming", "offline-playback"}; u >= 0 && int(u) < len(names) {
		return names[u]
	}
	return fmt.Sprintf("UseCase(%d)", int(u))
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
	// prefetchSlackSec is how much of a mid-segment original fetch the
	// client's buffer hides before playback visibly stalls.
	prefetchSlackSec = 0.16

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

// The paper's evaluation device, which Simulate charges and Player drives;
// its prices are in price.go.
var (
	headset = hmd.OSVRHDK2()
	wifi    = netsim.WiFi300()
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
	Energy
	Rebuffers int // blocking mid-segment fetches that stalled playback

	FramesTotal   int
	FramesHit     int // displayed directly from a FOV video
	FramesPT      int // rendered through projective transformation
	FOVChecks     int // frames that ran the FOV checker
	FOVMisses     int // checker misses, after a segment's fallback too
	DroppedFrames int

	StreamedBytes         int64 // bytes actually fetched
	BaselineStreamedBytes int64 // bytes the baseline would fetch
	// SegmentBytes is StreamedBytes per played segment (a fallback's
	// original in its segment's slot); Add leaves this one session's alone.
	SegmentBytes []int64
}

// Add accumulates another playback's accounting into r.
func (r *Result) Add(o Result) {
	r.Energy.Add(o.Energy)
	r.Rebuffers += o.Rebuffers
	r.FramesTotal += o.FramesTotal
	r.FramesHit += o.FramesHit
	r.FramesPT += o.FramesPT
	r.FOVChecks += o.FOVChecks
	r.FOVMisses += o.FOVMisses
	r.DroppedFrames += o.DroppedFrames
	r.StreamedBytes += o.StreamedBytes
	r.BaselineStreamedBytes += o.BaselineStreamedBytes
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

// decision is the client's one playback decision (§5.3–§5.4), made by
// sas's rules: Simulate prices it and Player.Play executes it.
type decision struct {
	tolerance float64 // how far a gaze may stray from a FOV frame's pose; +Inf hits every frame
	onFOV     bool    // the segment plays its FOV video and has not missed
}

// outcome is what the decision makes of one frame.
type outcome uint8

const (
	ptFrame   outcome = iota // rendered from the original through PT
	hitFrame                 // shown from the FOV frame, no PT
	firstMiss                // the FOV check's first miss: the original from here on
)

// segment picks a segment's source: the index of the FOV video whose
// first-frame pose in first is nearest the gaze (§5.3), or -1 for the
// original when first is empty, as in the model's resync hole.
func (d *decision) segment(first []geom.Orientation, gaze geom.Orientation) int {
	ti := sas.ChooseTrack(first, gaze)
	d.onFOV = ti >= 0
	return ti
}

// frame decides frame f at gaze against the pose its FOV frame was rendered
// for; hit is the checker's verdict, whatever the outcome.
func (d *decision) frame(f int, pose, gaze geom.Orientation) (out outcome, hit bool, catchUp int) {
	hit = sas.Hit(pose, gaze, d.tolerance)
	switch {
	case !d.onFOV:
		return ptFrame, hit, 0
	case hit:
		return hitFrame, hit, 0
	}
	out, catchUp = d.miss(f)
	return out, hit, catchUp
}

// miss ends the FOV video at frame f, checked or not: the original decodes
// from its keyframe, so its frames [0, f) are decoded again, unseen — the
// catch-up (§5.4).
func (d *decision) miss(f int) (outcome, int) {
	d.onFOV = false
	return firstMiss, f
}

// Simulate plays one head trace against one video's SAS plan under the
// configured variant/use-case and returns the energy and QoE accounting.
// The plan supplies segment boundaries and byte sizes even when SAS itself
// is disabled.
func Simulate(v scene.VideoSpec, tr headtrace.Trace, plan *sas.Plan, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	// Per-byte decode work is charged as a frame's share of the nominal bitrate.
	bytesShare := energy.NominalBitrateMbps(v.Complexity) * 1e6 / 8 / float64(v.FPS)
	if cfg.Variant == Tiled {
		bytesShare *= tiledByteRatio
	}
	sim := &simulator{cfg: cfg, dt: 1.0 / float64(v.FPS), bytesShare: bytesShare,
		fovBytes: fovFrameBytes(headset.FOVXDeg + plan.Cfg.MarginDeg)}
	sim.dec.tolerance = sas.Tolerance(plan.Cfg.MarginDeg, plan.Cfg.MarginDeg)
	if cfg.ForceAllHits {
		sim.dec.tolerance = math.Inf(1)
	}
	sim.run(tr, plan)
	return sim.res, nil
}

// simulator carries per-run state.
type simulator struct {
	cfg        Config
	dt         float64  // one frame's display time
	bytesShare float64  // one frame's compressed bytes
	fovBytes   int64    // one decoded FOV frame of the played plan
	dec        decision // the played plan's geometry governs hit checking
	res        Result
}

func (s *simulator) run(tr headtrace.Trace, plan *sas.Plan) {
	useSAS := (s.cfg.Variant == S || s.cfg.Variant == SH) && s.cfg.UseCase == OnlineStreaming
	usePTE := s.cfg.Variant == H || s.cfg.Variant == SH
	offline := s.cfg.UseCase == OfflinePlayback

	frames := len(tr.Samples)
	resync := 0 // segments left in the prefetch hole after a fallback
	var first []geom.Orientation
	for _, seg := range plan.Segments {
		if seg.Start >= frames {
			break
		}
		segFrames := seg.Frames
		if seg.Start+segFrames > frames {
			segFrames = frames - seg.Start
		}
		s.res.BaselineStreamedBytes += seg.OrigBytes * int64(segFrames) / int64(seg.Frames)
		s.res.SegmentBytes = append(s.res.SegmentBytes, 0)

		first = first[:0]
		if useSAS && resync == 0 {
			for _, t := range seg.Tracks {
				first = append(first, t.Centers[0])
			}
		}
		gaze := tr.Samples[seg.Start].O
		if s.cfg.Ext.PredictiveChoice {
			gaze = predictGaze(tr, seg.Start, seg.Frames/2)
		}
		ti := s.dec.segment(first, gaze)
		resync = max(resync-1, 0)
		// Fetch the chosen FOV video up front, or the original: no SAS, no
		// FOV videos, or re-syncing after a fallback. The Tiled variant
		// streams and decodes less but renders identically — the §9 contrast.
		bytes := seg.OrigBytes
		if ti >= 0 {
			bytes = seg.FOVBytes[ti]
		} else if s.cfg.Variant == Tiled {
			bytes = int64(float64(bytes) * tiledByteRatio)
		}
		s.fetch(bytes, false)
		for f := 0; f < segFrames; f++ {
			s.res.FramesTotal++
			s.res.chargeFrame(s.dt, s.cfg.ExtraComputeJPerFrame, offline)
			if ti >= 0 {
				// The model runs the FOV checker on every frame of a FOV
				// video, after a fallback too.
				s.res.FOVChecks++
				s.res.chargeFOVCheck()
				out, hit, catchUp := s.dec.frame(f, seg.Tracks[ti].Centers[f], tr.Samples[seg.Start+f].O)
				if !hit {
					s.res.FOVMisses++
				}
				if out == hitFrame {
					s.res.FramesHit++
					s.res.chargeHit(s.fovBytes, s.cfg.Variant == SH)
					s.res.chargeDecodeBytes(s.bytesShare)
					continue
				}
				if out == firstMiss {
					// Re-request the original (§5.4) and lose the prefetch
					// pipeline's next FOV videos: re-sync through it.
					resync = resyncSegments
					s.fetch(seg.OrigBytes, true)
					s.res.chargeCatchUp(catchUp)
				}
			}
			s.chargePTFrame(usePTE)
		}
	}
	s.res.Ledger.AdvanceTime(float64(s.res.FramesTotal) * s.dt)
}

// fetch charges a payload to the current segment's slot; blocking
// mid-segment fetches also model the rebuffering stall.
func (s *simulator) fetch(bytes int64, blocking bool) {
	offline := s.cfg.UseCase == OfflinePlayback
	s.res.chargeReceived(bytes, offline)
	if blocking && !offline {
		if dropped := fallbackStall(bytes, s.dt); dropped > 0 {
			s.res.Rebuffers++
			s.res.DroppedFrames += dropped
		}
	}
	s.res.StreamedBytes += bytes
	s.res.SegmentBytes[len(s.res.SegmentBytes)-1] += bytes
}

// fallbackStall is the stall rule of a blocking mid-segment fetch of bytes
// (§5.4's fallback to the original): the frames dt seconds long it drops,
// its transfer time on the modeled link beyond what the client's buffer
// hides; 0 means no stall. Simulate and Player.Play both count by it.
func fallbackStall(bytes int64, dt float64) int {
	stall := wifi.TransferSeconds(bytes) - prefetchSlackSec
	if stall <= 0 {
		return 0
	}
	return int(stall/dt) + 1
}

// chargePTFrame charges a conventionally-rendered frame: decode the full
// panorama (out-of-sight tiles at reduced resolution under Tiled) and run
// PT on the configured engine.
func (s *simulator) chargePTFrame(usePTE bool) {
	s.res.FramesPT++
	decPx, decBytes := float64(nominalW)*float64(nominalH), float64(panoramaBytes)
	if s.cfg.Variant == Tiled {
		decPx *= tiledPixelRatio
		decBytes *= tiledPixelRatio
	}
	s.res.chargeDecode(decPx, decBytes)
	s.res.chargeDecodeBytes(s.bytesShare)
	if usePTE {
		s.res.chargePTE(s.cfg.Ext.FusedPTE)
	} else {
		s.res.chargeGPU()
	}
}
