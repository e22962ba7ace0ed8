// Package projection implements the spherical↔planar projections used by
// 360° video systems: Equirectangular (ERP), CubeMap (CMP), and Equi-Angular
// Cubemap (EAC) — the three methods the paper's PTE mapping engine supports
// (§6.2).
//
// Following the paper's modular decomposition (Equ. 1–3):
//
//	ERP: C2S ∘ LS_erp
//	EAC: C2S ∘ LS_eac ∘ C2F
//	CMP: LS_cmp ∘ C2F
//
// the package exposes the shared building blocks (C2S cartesian-to-spherical,
// C2F cube-to-frame, and per-method linear scalings) as well as the composed
// ToPlane/ToSphere mappings. Planar coordinates are normalized to [0,1)² with
// u growing rightwards and v growing downwards, independent of frame
// resolution.
package projection

import (
	"fmt"
	"math"

	"evr/internal/geom"
)

// Method selects a spherical↔planar projection.
type Method int

const (
	// ERP is the equirectangular projection: longitude/latitude mapped
	// linearly to x/y.
	ERP Method = iota
	// CMP is the 3×2 cubemap projection with linear face coordinates.
	CMP
	// EAC is the equi-angular cubemap: cube faces with arctangent-warped
	// coordinates so that pixels subtend near-equal angles.
	EAC
)

// Methods lists all supported projections.
var Methods = []Method{ERP, CMP, EAC}

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case ERP:
		return "ERP"
	case CMP:
		return "CMP"
	case EAC:
		return "EAC"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// WrapsX reports whether the projection's frame is periodic in x: an
// equirectangular frame's left and right edges meet at the ±180° longitude
// seam, so texel columns wrap; the cubemap layouts clamp at the border.
func (m Method) WrapsX() bool { return m == ERP }

// C2S is the cartesian-to-spherical block shared by ERP and EAC (paper
// Fig. 9). It returns longitude theta ∈ [-π, π] and latitude phi ∈ [-π/2, π/2].
func C2S(v geom.Vec3) (theta, phi float64) {
	s := geom.FromCartesian(v)
	return s.Theta, s.Phi
}

// Face identifies one of the six cube faces.
type Face int

const (
	FacePosX Face = iota // +X (right)
	FaceNegX             // -X (left)
	FacePosY             // +Y (up)
	FaceNegY             // -Y (down)
	FacePosZ             // +Z (front)
	FaceNegZ             // -Z (back)
)

// cubeIntersect returns the face hit by the ray from the origin along v and
// the face-local coordinates (s, t) ∈ [-1, 1]².
func cubeIntersect(v geom.Vec3) (Face, float64, float64) {
	ax, ay, az := math.Abs(v.X), math.Abs(v.Y), math.Abs(v.Z)
	switch {
	case ax >= ay && ax >= az:
		if v.X > 0 {
			return FacePosX, -v.Z / ax, -v.Y / ax
		}
		return FaceNegX, v.Z / ax, -v.Y / ax
	case ay >= ax && ay >= az:
		if v.Y > 0 {
			return FacePosY, v.X / ay, v.Z / ay
		}
		return FaceNegY, v.X / ay, -v.Z / ay
	default:
		if v.Z > 0 {
			return FacePosZ, v.X / az, -v.Y / az
		}
		return FaceNegZ, -v.X / az, -v.Y / az
	}
}

// cubeDirection inverts cubeIntersect: face + face-local (s, t) → direction.
func cubeDirection(f Face, s, t float64) geom.Vec3 {
	switch f {
	case FacePosX:
		return geom.Vec3{X: 1, Y: -t, Z: -s}
	case FaceNegX:
		return geom.Vec3{X: -1, Y: -t, Z: s}
	case FacePosY:
		return geom.Vec3{X: s, Y: 1, Z: t}
	case FaceNegY:
		return geom.Vec3{X: s, Y: -1, Z: -t}
	case FacePosZ:
		return geom.Vec3{X: s, Y: -t, Z: 1}
	default: // FaceNegZ
		return geom.Vec3{X: -s, Y: -t, Z: -1}
	}
}

// facePlacement is the 3×2 layout: column, row of each face in the frame.
// Top row: +X, -X, +Y. Bottom row: -Y, +Z, -Z.
var facePlacement = [6][2]int{
	FacePosX: {0, 0},
	FaceNegX: {1, 0},
	FacePosY: {2, 0},
	FaceNegY: {0, 1},
	FacePosZ: {1, 1},
	FaceNegZ: {2, 1},
}

// C2F is the cube-to-frame block shared by CMP and EAC (paper Fig. 9 and
// Fig. 10): it packs face-local coordinates (already scaled to [0,1]²) into
// the 3×2 cubemap frame layout.
func C2F(f Face, fu, fv float64) (u, v float64) {
	p := facePlacement[f]
	return (float64(p[0]) + clamp01(fu)) / 3, (float64(p[1]) + clamp01(fv)) / 2
}

// F2C inverts C2F: a frame coordinate → face and face-local [0,1]² coords.
func F2C(u, v float64) (Face, float64, float64) {
	u, v = wrap01(u), clamp01v(v)
	col := int(u * 3)
	row := int(v * 2)
	if col > 2 {
		col = 2
	}
	if row > 1 {
		row = 1
	}
	for f, p := range facePlacement {
		if p[0] == col && p[1] == row {
			return Face(f), u*3 - float64(col), v*2 - float64(row)
		}
	}
	panic("projection: unreachable face lookup")
}

// lsERP is the linear scaling for ERP: (theta, phi) → [0,1)².
func lsERP(theta, phi float64) (u, v float64) {
	return (theta + math.Pi) / (2 * math.Pi), (math.Pi/2 - phi) / math.Pi
}

// lsERPInv inverts lsERP.
func lsERPInv(u, v float64) (theta, phi float64) {
	return u*2*math.Pi - math.Pi, math.Pi/2 - v*math.Pi
}

// eacWarp converts a linear face coordinate p ∈ [-1,1] to the equi-angular
// coordinate q ∈ [-1,1]: q = (4/π)·atan(p).
func eacWarp(p float64) float64 { return 4 / math.Pi * math.Atan(p) }

// eacUnwarp inverts eacWarp: p = tan(q·π/4).
func eacUnwarp(q float64) float64 { return math.Tan(q * math.Pi / 4) }

// ToPlane maps a direction on the viewing sphere to normalized planar frame
// coordinates (u, v) ∈ [0,1)² under the projection method. The zero vector
// maps to the frame center.
func ToPlane(m Method, dir geom.Vec3) (u, v float64) {
	if dir == (geom.Vec3{}) {
		return 0.5, 0.5
	}
	switch m {
	case ERP:
		theta, phi := C2S(dir)
		return lsERP(theta, phi)
	case CMP:
		f, s, t := cubeIntersect(dir)
		return C2F(f, (s+1)/2, (t+1)/2)
	case EAC:
		f, s, t := cubeIntersect(dir)
		return C2F(f, (eacWarp(s)+1)/2, (eacWarp(t)+1)/2)
	default:
		panic(fmt.Sprintf("projection: unknown method %v", m))
	}
}

// ToPlaneRow is ToPlane over a row of directions: it sets (u[k], v[k]) to
// ToPlane(m, (x[k], y[k], z[k])), bit for bit, for every k < len(x). All
// five slices must have the same length.
//
// For ERP it runs FromCartesian's operations, unchanged and in their order,
// as four loops over the row: the norm and Y/n, then math.Asin, then
// math.Atan2, then lsERP. Each pixel's divide → square root → Asin → Atan2
// is one chain of dependent long-latency operations; one loop over the
// whole chain leaves the CPU waiting on it, pixel after pixel, while short
// loops of independent iterations keep several pixels' operations in
// flight. CMP and EAC map element by element through ToPlane.
func ToPlaneRow(m Method, x, y, z, u, v []float64) {
	n := len(x)
	y, z, u, v = y[:n], z[:n], u[:n], v[:n]
	if m != ERP {
		for k := range x {
			u[k], v[k] = ToPlane(m, geom.Vec3{X: x[k], Y: y[k], Z: z[k]})
		}
		return
	}
	// u holds the norm until the Atan2 loop: FromCartesian's zero test.
	for k := range x {
		norm := geom.Vec3{X: x[k], Y: y[k], Z: z[k]}.Norm()
		u[k], v[k] = norm, y[k]/norm
	}
	for k := range v {
		v[k] = math.Asin(v[k])
	}
	for k := range u {
		if u[k] == 0 {
			// The zero vector, and any whose squares underflow: both
			// ToPlane's early return and FromCartesian's Spherical{}
			// come out as lsERP(0, 0) = (0.5, 0.5) exactly.
			u[k], v[k] = 0, 0
			continue
		}
		u[k] = math.Atan2(x[k], z[k])
	}
	for k := range u {
		u[k], v[k] = lsERP(u[k], v[k])
	}
}

// ToSphere maps normalized planar frame coordinates to a unit direction on
// the viewing sphere, inverting ToPlane.
func ToSphere(m Method, u, v float64) geom.Vec3 {
	switch m {
	case ERP:
		theta, phi := lsERPInv(wrap01(u), clamp01v(v))
		return geom.Spherical{Theta: theta, Phi: phi}.ToCartesian()
	case CMP:
		f, fu, fv := F2C(u, v)
		return cubeDirection(f, fu*2-1, fv*2-1).Normalize()
	case EAC:
		f, fu, fv := F2C(u, v)
		return cubeDirection(f, eacUnwarp(fu*2-1), eacUnwarp(fv*2-1)).Normalize()
	default:
		panic(fmt.Sprintf("projection: unknown method %v", m))
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// clamp01v clamps v into [0, 1) so row lookups stay in range.
func clamp01v(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x >= 1 {
		return math.Nextafter(1, 0)
	}
	return x
}

// wrap01 wraps u into [0, 1), the horizontal wrap-around of 360° frames.
func wrap01(x float64) float64 {
	x = math.Mod(x, 1)
	if x < 0 {
		x++
	}
	return x
}
