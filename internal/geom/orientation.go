package geom

import "math"

// Orientation is a head pose expressed as intrinsic yaw-pitch-roll Euler
// angles in radians, the representation the paper's IMU traces use. Yaw
// rotates about +Y, pitch about +X, roll about +Z. In the 360°-video setting
// only rotational motion is modeled (§2); there is no translation.
type Orientation struct {
	Yaw, Pitch, Roll float64
}

// Matrix returns the rotation matrix that takes the canonical forward frame
// into the head frame: R = Ry(yaw) · Rx(-pitch) · Rz(roll), so that positive
// pitch tilts the gaze towards +Y ("up"). This is the pair of "two 3×3
// rotation matrices" the paper's perspective-update stage multiplies by
// (§6.2); roll is usually zero for HMD video viewing, in which case the
// product collapses to exactly two sparse rotations.
func (o Orientation) Matrix() Mat3 {
	return RotationY(o.Yaw).Mul(RotationX(-o.Pitch)).Mul(RotationZ(o.Roll))
}

// Forward returns the unit gaze direction for the orientation.
func (o Orientation) Forward() Vec3 {
	return o.Matrix().Apply(Vec3{0, 0, 1})
}

// Normalize wraps yaw into [-π, π] and clamps pitch into [-π/2, π/2].
func (o Orientation) Normalize() Orientation {
	o.Yaw = WrapAngle(o.Yaw)
	if o.Pitch > math.Pi/2 {
		o.Pitch = math.Pi / 2
	}
	if o.Pitch < -math.Pi/2 {
		o.Pitch = -math.Pi / 2
	}
	o.Roll = WrapAngle(o.Roll)
	return o
}

// AngularDistance returns the angle in radians between the gaze directions of
// o and p. It is the geodesic distance on the viewing sphere and is what the
// FOV checker compares against the FOV margin.
func (o Orientation) AngularDistance(p Orientation) float64 {
	return o.Forward().Angle(p.Forward())
}

// Lerp interpolates between two orientations component-wise, taking the
// short way around for yaw. t=0 yields o, t=1 yields p.
func (o Orientation) Lerp(p Orientation, t float64) Orientation {
	dy := WrapAngle(p.Yaw - o.Yaw)
	dp := p.Pitch - o.Pitch
	dr := WrapAngle(p.Roll - o.Roll)
	return Orientation{
		Yaw:   WrapAngle(o.Yaw + dy*t),
		Pitch: o.Pitch + dp*t,
		Roll:  WrapAngle(o.Roll + dr*t),
	}.Normalize()
}

// WrapAngle wraps a into (-π, π]. Non-finite input returns NaN. Magnitudes
// beyond ±1e3 rad are range-reduced with math.Mod first; the iterative
// reduction is kept for the common small range because its float rounding is
// what every existing caller (and the byte-exact render goldens) observe.
func WrapAngle(a float64) float64 {
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return math.NaN()
	}
	if a > 1e3 || a < -1e3 {
		a = math.Mod(a, 2*math.Pi)
	}
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// Spherical holds spherical coordinates on the unit sphere: Theta is the
// longitude in [-π, π] (0 at +Z, increasing towards +X), Phi the latitude in
// [-π/2, π/2] (positive towards +Y).
type Spherical struct {
	Theta, Phi float64
}

// ToCartesian converts spherical coordinates to a unit vector.
func (s Spherical) ToCartesian() Vec3 {
	st, ct := math.Sincos(s.Theta)
	sp, cp := math.Sincos(s.Phi)
	return Vec3{cp * st, sp, cp * ct}
}

// FromCartesian converts a (not necessarily unit) vector to spherical
// coordinates. The zero vector maps to the origin of the coordinate system.
func FromCartesian(v Vec3) Spherical {
	n := v.Norm()
	if n == 0 {
		return Spherical{}
	}
	phi := math.Asin(v.Y / n)
	theta := math.Atan2(v.X, v.Z)
	return Spherical{Theta: theta, Phi: phi}
}

// LookAt returns the orientation (with zero roll) whose forward vector points
// along v.
func LookAt(v Vec3) Orientation {
	s := FromCartesian(v)
	return Orientation{Yaw: s.Theta, Pitch: s.Phi}
}

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }
