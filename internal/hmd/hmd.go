// Package hmd describes the head-mounted display of the evaluation platform
// and replays IMU traces into it.
//
// The paper's client (§8.1) pairs a 2560×1440 AMOLED panel (as in the
// Samsung Gear VR) with the Razer OSVR HDK2's 110°×110° field of view, and
// drives experiments by replaying recorded head-movement traces as IMU
// readings.
package hmd

import (
	"evr/internal/geom"
	"evr/internal/headtrace"
	"evr/internal/projection"
)

// Config describes an HMD.
type Config struct {
	DisplayW, DisplayH int     // panel resolution in pixels
	FOVXDeg, FOVYDeg   float64 // field of view in degrees
}

// OSVRHDK2 returns the paper's evaluation HMD: 2560×1440 panel, 110°×110°
// FOV (§8.1).
func OSVRHDK2() Config {
	return Config{DisplayW: 2560, DisplayH: 1440, FOVXDeg: 110, FOVYDeg: 110}
}

// Viewport returns the PT output surface for this HMD at full panel
// resolution.
func (c Config) Viewport() projection.Viewport {
	return projection.Viewport{
		Width:  c.DisplayW,
		Height: c.DisplayH,
		FOVX:   geom.Radians(c.FOVXDeg),
		FOVY:   geom.Radians(c.FOVYDeg),
	}
}

// ScaledViewport returns a proportionally reduced viewport for pixel-level
// simulation at 1/scale of the panel's linear resolution, preserving the
// FOV. Energy models always use the nominal viewport; the scaled one keeps
// pixel-exact experiments tractable.
func (c Config) ScaledViewport(scale int) projection.Viewport {
	if scale < 1 {
		scale = 1
	}
	vp := c.Viewport()
	vp.Width /= scale
	vp.Height /= scale
	return vp
}

// IMU replays a head trace as per-frame sensor readings — the trace-driven
// methodology of §8.1.
type IMU struct {
	trace headtrace.Trace
}

// NewIMU wraps a trace for replay.
func NewIMU(trace headtrace.Trace) *IMU { return &IMU{trace: trace} }

// Frames returns the number of samples available.
func (i *IMU) Frames() int { return len(i.trace.Samples) }

// Trace exposes the underlying head trace — head-motion predictors need
// the raw sample history, not just the instantaneous orientation.
func (i *IMU) Trace() headtrace.Trace { return i.trace }

// At returns the head orientation at frame index f, clamping past either
// end of the trace.
func (i *IMU) At(f int) geom.Orientation {
	if len(i.trace.Samples) == 0 {
		return geom.Orientation{}
	}
	if f < 0 {
		f = 0
	}
	if f >= len(i.trace.Samples) {
		f = len(i.trace.Samples) - 1
	}
	return i.trace.Samples[f].O
}
