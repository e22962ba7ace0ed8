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

// Instant is a video's objects at one time: each cap's centre and the
// cosines of its cap and rim radii, worked out once so that every direction
// sampled at that time costs one dot product per object instead of a
// trajectory evaluation and an arc cosine. VideoSpec.At builds it; a
// Raster's frames and the capture rig's sensors sample through it.
type Instant struct {
	t, k float64 // the time, and the background's spatial frequency
	caps []capAt
}

// capAt is one object at one time.
type capAt struct {
	center       geom.Vec3
	radius       float64
	cosR, cosRim float64 // cos(radius) and cos(0.8·radius)
	color        [3]byte
}

// guardBand is the half-width, in dot-product units, of the band around
// cos R and cos 0.8R inside which a direction is tested by its exact angle.
// The slope of acos is at least 1, so a dot product outside the band lies
// at least guardBand radians from the threshold angle — six orders of
// magnitude above the rounding error of math.Acos and math.Cos for the
// catalog's radii (≥ 0.096 rad), so comparing the dot product with the
// cosine decides exactly as comparing the angle with the radius does.
const guardBand = 1e-9

// At returns the video's objects at time t.
func (v VideoSpec) At(t float64) Instant {
	in := Instant{t: t, k: v.backgroundFreq(), caps: make([]capAt, len(v.Objects))}
	for i, o := range v.Objects {
		in.caps[i] = capAt{
			center: o.Center(t),
			radius: o.Radius,
			cosR:   math.Cos(o.Radius),
			cosRim: math.Cos(o.Radius * 0.8),
			color:  o.Color,
		}
	}
	return in
}

// Color returns the scene color seen along dir; it equals ColorAt at the
// instant's time for every direction.
func (in *Instant) Color(dir geom.Vec3) (r, g, b byte) {
	if r, g, b, ok := in.object(dir); ok {
		return r, g, b
	}
	return in.background(dir)
}

// object returns the color of the first object whose cap holds dir, and
// whether there is one. Only a dot product inside the guard band (or a NaN)
// falls through to the exact angle test.
func (in *Instant) object(dir geom.Vec3) (r, g, b byte, ok bool) {
	for i := range in.caps {
		c := &in.caps[i]
		d := dir.Dot(c.center)
		switch {
		case d < c.cosR-guardBand:
			continue
		case d > c.cosRim+guardBand:
			return c.color[0], c.color[1], c.color[2], true
		case d > c.cosR+guardBand && d < c.cosRim-guardBand:
			return c.color[0] / 4, c.color[1] / 4, c.color[2] / 4, true
		}
		if r, g, b, ok := c.exact(dir); ok {
			return r, g, b, true
		}
	}
	return 0, 0, 0, false
}

// exact is the reference cap test: the angle between dir and the centre
// against the cap and rim radii.
func (c *capAt) exact(dir geom.Vec3) (r, g, b byte, ok bool) {
	ang := dir.Angle(c.center)
	if ang < c.radius {
		if ang > c.radius*0.8 {
			// Dark rim.
			return c.color[0] / 4, c.color[1] / 4, c.color[2] / 4, true
		}
		return c.color[0], c.color[1], c.color[2], true
	}
	return 0, 0, 0, false
}

// ColorAt returns the scene color seen along direction dir at time t:
// objects (bright saturated caps with a dark rim, so detectors and codecs
// both see strong edges) over a muted low-frequency background. It is the
// per-direction reference: it places each object afresh and tests its cap
// by the exact angle.
func (v VideoSpec) ColorAt(t float64, dir geom.Vec3) (r, g, b byte) {
	for _, o := range v.Objects {
		c := capAt{center: o.Center(t), radius: o.Radius, color: o.Color}
		if r, g, b, ok := c.exact(dir); ok {
			return r, g, b
		}
	}
	in := Instant{t: t, k: v.backgroundFreq()}
	return in.background(dir)
}

// backgroundFreq is the background's spatial frequency, which scales with
// the video's complexity.
func (v VideoSpec) backgroundFreq() float64 { return 2 + 14*v.Complexity }

// background is a muted animated gradient.
func (in *Instant) background(dir geom.Vec3) (r, g, b byte) {
	s := geom.FromCartesian(dir)
	return in.shade(s.Theta, math.Cos(in.k*0.5*s.Phi), math.Sin(s.Phi*3))
}

// shade is the background at a direction of azimuth theta whose two
// time-independent elevation terms, cos(k·φ/2) and sin(3φ), are given.
func (in *Instant) shade(theta, cosHalfKPhi, sin3Phi float64) (r, g, b byte) {
	a := math.Sin(in.k*theta+0.3*in.t) * cosHalfKPhi
	base := 96 + 32*a
	r = byte(base + 20*sin3Phi)
	g = byte(base + 10*math.Cos(theta*2+0.1*in.t))
	b = byte(base * 0.9)
	return r, g, b
}

// Raster is a video's pixel grid in one projection and size, mapped once:
// each pixel's direction and the background terms that do not move with
// time. Its frames then cost a dot product per object per pixel, plus a
// sine and a cosine for a background pixel. A Raster is read-only after VideoSpec.Raster
// returns, so frames of it render concurrently.
type Raster struct {
	v    VideoSpec
	w, h int
	px   []rasterPixel
}

// rasterPixel is one pixel of a Raster: 48 bytes.
type rasterPixel struct {
	dir                  geom.Vec3
	theta                float64
	cosHalfKPhi, sin3Phi float64
}

// Raster maps every pixel of a w×h frame in projection m to its direction.
func (v VideoSpec) Raster(m projection.Method, w, h int) *Raster {
	k := v.backgroundFreq()
	r := &Raster{v: v, w: w, h: h, px: make([]rasterPixel, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dir := projection.ToSphere(m, (float64(x)+0.5)/float64(w), (float64(y)+0.5)/float64(h))
			s := geom.FromCartesian(dir)
			r.px[y*w+x] = rasterPixel{dir: dir, theta: s.Theta, cosHalfKPhi: math.Cos(k * 0.5 * s.Phi), sin3Phi: math.Sin(s.Phi * 3)}
		}
	}
	return r
}

// Frame renders the scene at time t; it equals ColorAt at every pixel's
// direction.
func (r *Raster) Frame(t float64) *frame.Frame {
	in := r.v.At(t)
	f := frame.New(r.w, r.h)
	for i := range r.px {
		p := &r.px[i]
		cr, cg, cb, ok := in.object(p.dir)
		if !ok {
			cr, cg, cb = in.shade(p.theta, p.cosHalfKPhi, p.sin3Phi)
		}
		f.Pix[3*i], f.Pix[3*i+1], f.Pix[3*i+2] = cr, cg, cb
	}
	return f
}

// RenderFrame rasterizes the scene at time t into a full panoramic frame of
// the given projection and resolution — the "camera rig + projection" stage
// of Fig. 1. It maps the raster afresh; a caller rendering several frames of
// one geometry keeps a Raster instead.
func (v VideoSpec) RenderFrame(t float64, m projection.Method, w, h int) *frame.Frame {
	return v.Raster(m, w, h).Frame(t)
}

// RenderVideo rasterizes the first n frames of the video.
func (v VideoSpec) RenderVideo(m projection.Method, w, h, n int) []*frame.Frame {
	if total := v.Frames(); n > total {
		n = total
	}
	r := v.Raster(m, w, h)
	out := make([]*frame.Frame, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Frame(float64(i)/float64(v.FPS)))
	}
	return out
}
