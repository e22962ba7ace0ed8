// Package scene procedurally generates 360° video content with ground-truth
// object annotations.
//
// The paper evaluates on five YouTube 360° videos (Elephant, Paris, Rhino,
// RS, Timelapse — plus NYC in the power characterization) with real head
// traces [Corbillon et al., MMSys'17]. Those videos are not redistributable,
// so this package substitutes parametric spherical scenes: each video spec
// places a set of visually-distinct objects on the sphere and moves them
// along smooth trajectories. The substitution preserves the two properties
// the whole EVR evaluation rests on:
//
//   - frames contain a known set of trackable visual objects (the object
//     counts per video match Fig. 5's x-axes), and
//   - content complexity varies across videos (texture and motion levels
//     drive codec bitrate and therefore per-video energy splits, Fig. 3).
//
// Scenes are resolution-independent: color is defined per direction on the
// sphere, and frames in any projection are rendered by sampling.
package scene

import (
	"math"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
)

// ObjectSpec describes one moving object: a circular cap on the sphere whose
// center follows a smooth parametric trajectory
//
//	yaw(t)   = BaseYaw   + DriftYaw·t   + AmpYaw·sin(FreqYaw·t + PhaseYaw)
//	pitch(t) = BasePitch +               AmpPitch·sin(FreqPitch·t + PhasePitch)
//
// with all angles in radians and t in seconds.
type ObjectSpec struct {
	ID                   int
	BaseYaw, BasePitch   float64
	DriftYaw             float64
	AmpYaw, AmpPitch     float64
	FreqYaw, FreqPitch   float64
	PhaseYaw, PhasePitch float64
	Radius               float64 // angular radius of the cap
	Color                [3]byte
}

// Center returns the object's direction at time t.
func (o ObjectSpec) Center(t float64) geom.Vec3 {
	yaw := geom.WrapAngle(o.BaseYaw + o.DriftYaw*t + o.AmpYaw*math.Sin(o.FreqYaw*t+o.PhaseYaw))
	pitch := o.BasePitch + o.AmpPitch*math.Sin(o.FreqPitch*t+o.PhasePitch)
	if pitch > math.Pi/2 {
		pitch = math.Pi / 2
	}
	if pitch < -math.Pi/2 {
		pitch = -math.Pi / 2
	}
	return geom.Spherical{Theta: yaw, Phi: pitch}.ToCartesian()
}

// ObjectState is a ground-truth annotation: where an object is at some time.
type ObjectState struct {
	ID     int
	Dir    geom.Vec3
	Radius float64
}

// VideoSpec describes one synthetic 360° video.
type VideoSpec struct {
	Name     string
	Duration float64 // seconds
	FPS      int
	Objects  []ObjectSpec
	// Complexity in (0, 1]: texture busyness of the background. Higher
	// complexity costs more codec bits per frame, which shifts the
	// per-video energy split (Fig. 3b).
	Complexity float64
}

// Frames returns the total frame count.
func (v VideoSpec) Frames() int { return int(v.Duration * float64(v.FPS)) }

// ObjectsAt returns ground-truth object states at time t.
func (v VideoSpec) ObjectsAt(t float64) []ObjectState {
	out := make([]ObjectState, len(v.Objects))
	for i, o := range v.Objects {
		out[i] = ObjectState{ID: o.ID, Dir: o.Center(t), Radius: o.Radius}
	}
	return out
}

// ColorAt returns the scene color seen along direction dir at time t:
// objects (bright saturated caps with a dark rim, so detectors and codecs
// both see strong edges) over a muted low-frequency background.
func (v VideoSpec) ColorAt(t float64, dir geom.Vec3) (r, g, b byte) {
	for _, o := range v.Objects {
		ang := dir.Angle(o.Center(t))
		if ang < o.Radius {
			if ang > o.Radius*0.8 {
				// Dark rim.
				return o.Color[0] / 4, o.Color[1] / 4, o.Color[2] / 4
			}
			return o.Color[0], o.Color[1], o.Color[2]
		}
	}
	return v.background(t, dir)
}

// background is a muted animated gradient whose spatial frequency scales
// with the video's complexity.
func (v VideoSpec) background(t float64, dir geom.Vec3) (r, g, b byte) {
	s := geom.FromCartesian(dir)
	k := 2 + 14*v.Complexity
	a := math.Sin(k*s.Theta+0.3*t) * math.Cos(k*0.5*s.Phi)
	base := 96 + 32*a
	r = byte(base + 20*math.Sin(s.Phi*3))
	g = byte(base + 10*math.Cos(s.Theta*2+0.1*t))
	b = byte(base * 0.9)
	return r, g, b
}

// RenderFrame rasterizes the scene at time t into a full panoramic frame of
// the given projection and resolution — the "camera rig + projection" stage
// of Fig. 1.
func (v VideoSpec) RenderFrame(t float64, m projection.Method, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dir := projection.ToSphere(m, (float64(x)+0.5)/float64(w), (float64(y)+0.5)/float64(h))
			r, g, b := v.ColorAt(t, dir)
			f.Set(x, y, r, g, b)
		}
	}
	return f
}

// RenderVideo rasterizes the first n frames of the video.
func (v VideoSpec) RenderVideo(m projection.Method, w, h, n int) []*frame.Frame {
	if total := v.Frames(); n > total {
		n = total
	}
	out := make([]*frame.Frame, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, v.RenderFrame(float64(i)/float64(v.FPS), m, w, h))
	}
	return out
}
