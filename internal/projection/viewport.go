package projection

import (
	"math"

	"evr/internal/geom"
)

// Viewport describes the planar output surface of the projective
// transformation: the HMD's per-eye display region with its field of view.
// The paper's evaluation uses the Razer OSVR HDK2's 110°×110° FOV (§8.1).
type Viewport struct {
	Width, Height int     // output resolution in pixels
	FOVX, FOVY    float64 // field of view in radians
}

// Pixels returns the number of pixels in the viewport.
func (vp Viewport) Pixels() int { return vp.Width * vp.Height }

// Ray returns the unit view direction through pixel (i, j) for a head
// orientation o. This is the geometric content of the PT "perspective
// update" stage (§6.1): pixel coordinates → point P′ on the unit sphere.
// Pixel centers are sampled, i.e. (i+0.5, j+0.5).
func (vp Viewport) Ray(o geom.Orientation, i, j int) geom.Vec3 {
	px, py := vp.planeCoords(i, j)
	return o.Matrix().Apply(geom.Vec3{X: px, Y: py, Z: 1}).Normalize()
}

// planeCoords returns the image-plane coordinates (at focal distance 1) of
// pixel (i, j).
func (vp Viewport) planeCoords(i, j int) (px, py float64) {
	tx := math.Tan(vp.FOVX / 2)
	ty := math.Tan(vp.FOVY / 2)
	px = (2*(float64(i)+0.5)/float64(vp.Width) - 1) * tx
	py = (1 - 2*(float64(j)+0.5)/float64(vp.Height)) * ty
	return px, py
}

// Contains reports whether the direction dir falls inside the viewport when
// looking along orientation o. Directions behind the viewer never match.
func (vp Viewport) Contains(o geom.Orientation, dir geom.Vec3) bool {
	// Transform dir into the head frame: the inverse of a rotation matrix
	// is its transpose.
	local := o.Matrix().Transpose().Apply(dir)
	if local.Z <= 0 {
		return false
	}
	px := local.X / local.Z
	py := local.Y / local.Z
	return math.Abs(px) <= math.Tan(vp.FOVX/2) && math.Abs(py) <= math.Tan(vp.FOVY/2)
}
