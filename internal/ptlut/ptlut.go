// Package ptlut exploits the paper's core PTE insight (§6) in software:
// given a (pose, projection, filter, viewport, input dims) tuple, the PT's
// memory-access pattern is fully deterministic — every output pixel reads a
// fixed set of input texels with fixed blend weights. The perspective-update
// and mapping stages (rotation, normalization, trigonometry — the expensive
// part of the per-pixel pipeline) can therefore be run once, memoized into a
// compact per-pixel lookup table, and reused for every subsequent frame
// rendered under the same tuple: later frames pay only the filtering stage
// (gather + blend), a multi-× win on the render hot path.
//
// Reuse compounds across three axes:
//
//   - across frames of a segment: a cluster trajectory or a resting head
//     repeats the same pose for many consecutive frames;
//   - across users: everyone watching the same content through the same
//     viewport geometry shares tables, exactly as the server response cache
//     shares encoded payloads (internal/server/respcache.go);
//   - across poses, optionally: quantizing head poses onto a configurable
//     (yaw, pitch, roll) grid collapses nearby poses onto one table at a
//     bounded, budgeted pixel error (the software analogue of the paper's
//     observation that pose deltas below the panel's angular resolution are
//     invisible).
//
// Tables live in a bytes-budgeted LRU cache with singleflight build
// coalescing — the same cache core (internal/cache) as the serving layer's
// response cache. The exact-pose
// render path is byte-identical to pt.RenderParallel — gated by the
// conformance corpus — while the quantized mode is held to per-boundary-class
// error budgets like the fixed-point PTE datapath.
package ptlut

import (
	"math"

	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

// Key identifies one mapping table: every input of the perspective-update
// and mapping stages, in aggregate. Two renders with equal keys read the
// same input texels with the same weights, so they may share a table. Float
// fields are stored as IEEE-754 bit patterns to keep the key comparable and
// hashable without rounding surprises.
type Key struct {
	Proj       projection.Method
	Filter     pt.Filter
	VPW, VPH   int    // output viewport in pixels
	FOVX, FOVY uint64 // viewport FOV radians, Float64bits
	FullW      int    // input panorama dims
	FullH      int
	Yaw        uint64 // build pose, Float64bits (quantized when QuantStep > 0)
	Pitch      uint64
	Roll       uint64
	// QuantWeights marks tables whose bilinear weights are packed to 8-bit
	// fixed point (the compact integer sampling path) rather than the
	// byte-exact float weights.
	QuantWeights bool
}

// MakeKey builds the table key for a render of cfg at build pose o over a
// fullW×fullH input. The pose must already be quantized when pose
// quantization is in effect — the key stores it verbatim.
func MakeKey(cfg pt.Config, o geom.Orientation, fullW, fullH int, quantWeights bool) Key {
	return Key{
		Proj:         cfg.Projection,
		Filter:       cfg.Filter,
		VPW:          cfg.Viewport.Width,
		VPH:          cfg.Viewport.Height,
		FOVX:         math.Float64bits(cfg.Viewport.FOVX),
		FOVY:         math.Float64bits(cfg.Viewport.FOVY),
		FullW:        fullW,
		FullH:        fullH,
		Yaw:          math.Float64bits(o.Yaw),
		Pitch:        math.Float64bits(o.Pitch),
		Roll:         math.Float64bits(o.Roll),
		QuantWeights: quantWeights,
	}
}

// Quantize snaps a head pose onto the (yaw, pitch, roll) grid with the given
// step in radians: each angle moves to its nearest grid point, at most
// step/2 away. step <= 0 returns the pose unchanged (exact mode). The pose
// is normalized first so physically identical orientations land on the same
// grid point; poses within step/2 of the ±π yaw seam may still split across
// the two equivalent grid points there — a missed share, never an error.
func Quantize(o geom.Orientation, step float64) geom.Orientation {
	if step <= 0 {
		return o
	}
	o = o.Normalize()
	return geom.Orientation{
		Yaw:   math.Round(o.Yaw/step) * step,
		Pitch: math.Round(o.Pitch/step) * step,
		Roll:  math.Round(o.Roll/step) * step,
	}
}

// Options tunes a Renderer's accuracy/speed/sharing trade-off. The zero
// value is the exact mode: tables are keyed on the precise pose and carry
// float weights, so output is byte-identical to pt.RenderParallel.
type Options struct {
	// QuantStep is the pose-quantization grid step in radians (0 = exact
	// pose). Nearby poses share one table; the displayed image is the one
	// the snapped pose would see, shifting content by at most step/2 per
	// axis. DefaultQuantStep keeps that under typical panel resolution.
	QuantStep float64
	// QuantWeights packs bilinear blend weights to 8-bit fixed point and
	// samples with integer arithmetic — a smaller table and a faster inner
	// loop, at ≤ 1/512 per-tap weight error. Implies non-exact output.
	// Ignored by the nearest filter, whose table is index-only.
	QuantWeights bool
}

// DefaultQuantStep is the pose grid step used by the quantized presets:
// 0.25° ≈ 4.4 mrad. The snap moves each angle by at most 0.125°, on the
// order of one panel pixel of the paper's evaluation HMD (OSVR HDK2:
// ~110°/1080 ≈ 0.1° per pixel) — a sub-pixel to ~1-pixel content shift,
// bounded by the quantized-mode error budgets in the conformance tests.
const DefaultQuantStep = 0.25 * math.Pi / 180
