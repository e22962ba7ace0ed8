// Package geom provides the floating-point geometric primitives used by the
// reference projective-transformation pipeline: 3-vectors, rotation matrices,
// Euler angles, quaternions, and spherical-coordinate conversions.
//
// The conventions follow the paper's rendering model (§2, §6.1):
//
//   - The viewing sphere is the unit sphere centered at the origin.
//   - Head orientation is a rotation applied to the canonical forward axis
//     +Z; yaw is rotation about +Y (positive left), pitch about +X (positive
//     up), roll about +Z.
//   - Spherical coordinates are (theta, phi) with theta ∈ [-π, π] the
//     longitude (azimuth, 0 at +Z, increasing towards +X) and phi ∈
//     [-π/2, π/2] the latitude (elevation, positive towards +Y).
package geom

import "math"

// Vec3 is a 3-component double-precision vector.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v · w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Angle returns the angle in radians between unit vectors v and w: the
// arccosine of their dot product, clamped to [-1, 1] so rounding past
// either end gives 0 or π rather than NaN. The clamp is two branches, not
// min/max: scene rendering calls Angle per pixel and object.
func (v Vec3) Angle(w Vec3) float64 {
	d := v.Dot(w)
	if d > 1 {
		d = 1
	} else if d < -1 {
		d = -1
	}
	return math.Acos(d)
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Mat3 is a 3×3 row-major matrix.
type Mat3 [3][3]float64

// Mul returns the matrix product m × n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[i][0]*n[0][j] + m[i][1]*n[1][j] + m[i][2]*n[2][j]
		}
	}
	return r
}

// Apply returns the matrix-vector product m × v.
func (m Mat3) Apply(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// Transpose returns the transpose of m. For rotation matrices this is the
// inverse.
func (m Mat3) Transpose() Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[j][i]
		}
	}
	return r
}

// RotationX returns the rotation matrix about the +X axis by a radians.
func RotationX(a float64) Mat3 {
	s, c := math.Sincos(a)
	return Mat3{
		{1, 0, 0},
		{0, c, -s},
		{0, s, c},
	}
}

// RotationY returns the rotation matrix about the +Y axis by a radians.
func RotationY(a float64) Mat3 {
	s, c := math.Sincos(a)
	return Mat3{
		{c, 0, s},
		{0, 1, 0},
		{-s, 0, c},
	}
}

// RotationZ returns the rotation matrix about the +Z axis by a radians.
func RotationZ(a float64) Mat3 {
	s, c := math.Sincos(a)
	return Mat3{
		{c, -s, 0},
		{s, c, 0},
		{0, 0, 1},
	}
}
