// Package capture models the production side of the VR pipeline (Fig. 1
// left half, §9): a multi-camera rig samples the scene, and the stitcher
// reprojects and blends the per-camera images into the spherical panorama
// that the rest of the system ingests.
//
// The paper treats capture as out of scope for its evaluation but leans on
// it conceptually — the spherical-to-planar projection that creates the "VR
// tax" happens here — and §9 proposes capture/playback co-design (the
// embedded-semantics path implemented in package server). This package
// closes the loop: synthetic scenes can be run through a realistic
// capture→stitch→project chain instead of being rendered analytically, and
// the stitch quality is measurable against the analytic ground truth.
package capture

import (
	"fmt"
	"math"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/scene"
)

// Camera is one pinhole camera of a rig.
type Camera struct {
	Orientation geom.Orientation
	FOVX, FOVY  float64 // radians
	W, H        int     // sensor resolution
}

// viewport converts the camera into the shared viewport math.
func (c Camera) viewport() projection.Viewport {
	return projection.Viewport{Width: c.W, Height: c.H, FOVX: c.FOVX, FOVY: c.FOVY}
}

// Validate reports whether the camera is usable.
func (c Camera) Validate() error {
	if c.W <= 0 || c.H <= 0 {
		return fmt.Errorf("capture: sensor %dx%d must be positive", c.W, c.H)
	}
	if c.FOVX <= 0 || c.FOVX >= math.Pi || c.FOVY <= 0 || c.FOVY >= math.Pi {
		return fmt.Errorf("capture: FOV %v×%v rad out of (0, π)", c.FOVX, c.FOVY)
	}
	return nil
}

// Rig is a co-located multi-camera assembly (an omnidirectional rig like
// the paper's cited Surround 360 / Jump systems).
type Rig struct {
	Cameras []Camera
}

// SixCameraRig returns the canonical cube rig: six cameras along the ±X,
// ±Y, ±Z axes with just over 90° FOV for stitching overlap.
func SixCameraRig(res int) Rig {
	fov := geom.Radians(100) // 90° face + 10° overlap
	dirs := []geom.Orientation{
		{},                    // +Z
		{Yaw: math.Pi / 2},    // +X
		{Yaw: math.Pi},        // -Z
		{Yaw: -math.Pi / 2},   // -X
		{Pitch: math.Pi / 2},  // +Y
		{Pitch: -math.Pi / 2}, // -Y
	}
	var r Rig
	for _, d := range dirs {
		r.Cameras = append(r.Cameras, Camera{Orientation: d, FOVX: fov, FOVY: fov, W: res, H: res})
	}
	return r
}

// Validate reports whether the rig is usable.
func (r Rig) Validate() error {
	if len(r.Cameras) == 0 {
		return fmt.Errorf("capture: rig has no cameras")
	}
	for i, c := range r.Cameras {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("capture: camera %d: %w", i, err)
		}
	}
	return nil
}

// Capture renders each camera's view of the scene at time t — the raw
// sensor images before stitching. The objects are placed once for all
// cameras.
func (r Rig) Capture(v scene.VideoSpec, t float64) []*frame.Frame {
	in := v.At(t)
	out := make([]*frame.Frame, len(r.Cameras))
	for ci, cam := range r.Cameras {
		vp := cam.viewport()
		img := frame.New(cam.W, cam.H)
		for y := 0; y < cam.H; y++ {
			for x := 0; x < cam.W; x++ {
				dir := vp.Ray(cam.Orientation, x, y)
				cr, cg, cb := in.Color(dir)
				img.Set(x, y, cr, cg, cb)
			}
		}
		out[ci] = img
	}
	return out
}

// Stitch reprojects the per-camera images into a panoramic frame of the
// given projection and size. Each output direction samples every camera
// that sees it, blended by angular proximity to the camera axis (feathered
// seams, the standard equirectangular stitch).
func (r Rig) Stitch(images []*frame.Frame, m projection.Method, outW, outH int) (*frame.Frame, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if len(images) != len(r.Cameras) {
		return nil, fmt.Errorf("capture: %d images for %d cameras", len(images), len(r.Cameras))
	}
	out := frame.New(outW, outH)
	for y := 0; y < outH; y++ {
		for x := 0; x < outW; x++ {
			dir := projection.ToSphere(m, (float64(x)+0.5)/float64(outW), (float64(y)+0.5)/float64(outH))
			var wr, wg, wb, wsum float64
			for ci, cam := range r.Cameras {
				vp := cam.viewport()
				if !vp.Contains(cam.Orientation, dir) {
					continue
				}
				u, vv, ok := projectToCamera(cam, dir)
				if !ok {
					continue
				}
				cr, cg, cb := images[ci].BilinearAt(u, vv)
				// Feather: weight by closeness to the camera axis.
				w := axisWeight(cam, dir)
				wr += w * float64(cr)
				wg += w * float64(cg)
				wb += w * float64(cb)
				wsum += w
			}
			if wsum > 0 {
				out.Set(x, y, byte(wr/wsum+0.5), byte(wg/wsum+0.5), byte(wb/wsum+0.5))
			}
		}
	}
	return out, nil
}

// projectToCamera maps a world direction into continuous pixel coordinates
// of a camera's sensor.
func projectToCamera(cam Camera, dir geom.Vec3) (u, v float64, ok bool) {
	local := cam.Orientation.Matrix().Transpose().Apply(dir)
	if local.Z <= 1e-9 {
		return 0, 0, false
	}
	px := local.X / local.Z
	py := local.Y / local.Z
	tx := math.Tan(cam.FOVX / 2)
	ty := math.Tan(cam.FOVY / 2)
	// Invert the viewport's planeCoords: pixel centers at integer coords.
	u = (px/tx+1)/2*float64(cam.W) - 0.5
	v = (1-py/ty)/2*float64(cam.H) - 0.5
	if u < -0.5 || u > float64(cam.W)-0.5 || v < -0.5 || v > float64(cam.H)-0.5 {
		return 0, 0, false
	}
	return u, v, true
}

// axisWeight returns the feathering weight of a camera for a direction:
// cosine falloff from the camera axis, clipped at the FOV edge.
func axisWeight(cam Camera, dir geom.Vec3) float64 {
	cosAng := cam.Orientation.Forward().Dot(dir)
	if cosAng <= 0 {
		return 0
	}
	return cosAng * cosAng
}

// StitchError measures the stitched panorama against the analytic scene
// render at the same instant — the reconstruction fidelity of the rig.
func StitchError(v scene.VideoSpec, t float64, r Rig, m projection.Method, outW, outH int) (mae float64, psnr float64, err error) {
	images := r.Capture(v, t)
	stitched, err := r.Stitch(images, m, outW, outH)
	if err != nil {
		return 0, 0, err
	}
	ref := v.RenderFrame(t, m, outW, outH)
	return frame.MAE(stitched, ref), frame.PSNR(stitched, ref), nil
}
