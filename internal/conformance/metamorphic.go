package conformance

import (
	"fmt"
	"math"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
	"evr/internal/pte"
)

// Metamorphic properties: oracle-free invariants of the render pipeline.
// Where differential testing asks "do the implementations agree?", these ask
// "does the reference implementation agree with geometry?" — so a bug shared
// by every implementation still gets caught.

// CheckIdentityPassthrough verifies that a 90°×90° identity-pose render of a
// CMP panorama with nearest filtering reproduces the +Z (front) face of the
// input byte-for-byte: every output ray lands exactly on an input pixel
// center (up to ~1e-13 px of float noise, absorbed by nearest rounding).
func CheckIdentityPassthrough() error {
	full := InputFrame(projection.CMP)
	face := full.W / 3 // 80
	cfg := pt.Config{
		Projection: projection.CMP,
		Filter:     pt.Nearest,
		Viewport: projection.Viewport{
			Width: face, Height: face,
			FOVX: math.Pi / 2, FOVY: math.Pi / 2,
		},
	}
	out, err := pt.RenderChecked(cfg, full, geom.Orientation{})
	if err != nil {
		return fmt.Errorf("identity passthrough: %w", err)
	}
	// +Z sits at column 1, row 1 of the 3×2 layout.
	x0, y0 := face, face
	for j := 0; j < face; j++ {
		for i := 0; i < face; i++ {
			wr, wg, wb := full.At(x0+i, y0+j)
			gr, gg, gb := out.At(i, j)
			if wr != gr || wg != gg || wb != gb {
				return fmt.Errorf("identity passthrough: output (%d,%d) = (%d,%d,%d), want front-face pixel (%d,%d,%d)",
					i, j, gr, gg, gb, wr, wg, wb)
			}
		}
	}
	return nil
}

// shiftX returns a copy of f with every row rotated left by k pixels:
// g(x) = f((x+k) mod W). For an ERP panorama this is an exact yaw rotation
// of the scene by 2πk/W.
func shiftX(f *frame.Frame, k int) *frame.Frame {
	g := frame.New(f.W, f.H)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r, gg, b := f.At((x+k)%f.W, y)
			g.Set(x, y, r, gg, b)
		}
	}
	return g
}

// checkYawShift verifies ERP yaw-equivariance for a k-pixel scene rotation:
// rendering the original panorama under head yaw 2πk/W must match rendering
// the k-shifted panorama under the base pose. The two float paths differ by
// rotation-matrix rounding (~1e-15 rad), so a small number of pixels at
// nearest-rounding boundaries may flip; the property bounds the aggregate
// error instead of demanding bit equality.
func checkYawShift(f pt.Filter, k int, base geom.Orientation, what string) error {
	full := InputFrame(projection.ERP)
	cfg := pt.Config{
		Projection: projection.ERP,
		Filter:     f,
		Viewport: projection.Viewport{
			Width: vpSize, Height: vpSize,
			FOVX: fovRad, FOVY: fovRad,
		},
	}
	rotated := base
	rotated.Yaw += 2 * math.Pi * float64(k) / float64(full.W)
	a, err := pt.RenderChecked(cfg, full, rotated)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	b, err := pt.RenderChecked(cfg, shiftX(full, k), base)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	m := measure(a, b)
	const maxMAE, maxDiffFrac = 1e-3, 0.02
	if m.MAE > maxMAE || m.DiffFrac > maxDiffFrac {
		return fmt.Errorf("%s (%v, k=%d): MAE %g (budget %g), %.2f%% pixels differ (budget %.2f%%), maxAbs %d",
			what, f, k, m.MAE, maxMAE, 100*m.DiffFrac, 100*maxDiffFrac, m.MaxAbsErr)
	}
	return nil
}

// CheckYawEquivariance runs the ERP rotate-input ↔ rotate-pose property for
// both filters at a quarter-turn and a small shift.
func CheckYawEquivariance() error {
	for _, f := range []pt.Filter{pt.Nearest, pt.Bilinear} {
		for _, k := range []int{1, erpW / 4} {
			if err := checkYawShift(f, k, geom.Orientation{Pitch: 0.2}, "yaw equivariance"); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckSeamContinuity exercises the ERP ±180° longitude seam: a half-turn
// scene rotation viewed at the base pose must equal the original panorama
// viewed at yaw π, with the seam running through the center of the
// viewport. A border-clamp regression at the seam (instead of wrap) breaks
// this immediately.
func CheckSeamContinuity() error {
	for _, f := range []pt.Filter{pt.Nearest, pt.Bilinear} {
		if err := checkYawShift(f, erpW/2, geom.Orientation{}, "seam continuity"); err != nil {
			return err
		}
	}
	return nil
}

// CheckProjectionRoundTrip bounds the ToPlane ∘ ToSphere round trip for
// every projection: directions (including poles, cube corners, and seam
// neighbors) must survive sphere → plane → sphere within an angular bound,
// and interior plane points must survive plane → sphere → plane.
func CheckProjectionRoundTrip() error {
	dirs := []geom.Vec3{
		{Y: 1}, {Y: -1}, {Z: 1}, {Z: -1}, {X: 1}, {X: -1},
		geom.Vec3{X: 1, Y: 1, Z: 1}.Normalize(),
		geom.Vec3{X: -1, Y: 1, Z: -1}.Normalize(),
		geom.Vec3{X: 1, Z: 1}.Normalize(),
		geom.Vec3{X: -0.001, Z: -1}.Normalize(), // just past the seam
	}
	state := uint64(0xD1FF)
	for i := 0; i < 50; i++ {
		dirs = append(dirs, geom.Spherical{
			Theta: (rand01(&state)*2 - 1) * math.Pi,
			Phi:   (rand01(&state) - 0.5) * math.Pi,
		}.ToCartesian())
	}
	for _, m := range projection.Methods {
		for _, d := range dirs {
			u, v := projection.ToPlane(m, d)
			back := projection.ToSphere(m, u, v)
			if ang := back.Angle(d); ang > 1e-7 {
				return fmt.Errorf("round trip: %v dir %+v drifted %g rad through (%.9f, %.9f)", m, d, ang, u, v)
			}
		}
		// Plane round trip over an interior grid (face boundaries excluded:
		// there the same direction legitimately maps to either face).
		for gy := 0; gy < 8; gy++ {
			for gx := 0; gx < 12; gx++ {
				u := (float64(gx) + 0.37) / 12
				v := (float64(gy) + 0.41) / 8
				u2, v2 := projection.ToPlane(m, projection.ToSphere(m, u, v))
				du := math.Abs(u2 - u)
				if du > 0.5 {
					du = 1 - du
				}
				if du > 1e-9 || math.Abs(v2-v) > 1e-9 {
					return fmt.Errorf("round trip: %v plane (%g, %g) → (%g, %g)", m, u, v, u2, v2)
				}
			}
		}
	}
	return nil
}

// CheckPassthrough verifies the PTE passthrough path (a SAS hit) forwards a
// pre-rendered FOV frame untouched and charges only DMA cycles.
func CheckPassthrough() error {
	vp := projection.Viewport{Width: vpSize, Height: vpSize, FOVX: fovRad, FOVY: fovRad}
	eng, err := pte.New(pte.DefaultConfig(projection.ERP, pt.Bilinear, vp))
	if err != nil {
		return fmt.Errorf("passthrough: %w", err)
	}
	full := InputFrame(projection.ERP)
	fov := pt.Render(pt.Config{Projection: projection.ERP, Filter: pt.Bilinear, Viewport: vp}, full, geom.Orientation{Yaw: 1})
	before := Checksum(fov)
	out := eng.Passthrough(fov)
	if Checksum(out) != before {
		return fmt.Errorf("passthrough: frame modified")
	}
	st := eng.Stats()
	if st.Passthroughs != 1 || st.Frames != 0 || st.OutputPixels != 0 {
		return fmt.Errorf("passthrough: unexpected stats %+v", st)
	}
	return nil
}

// RunMetamorphic executes every metamorphic property and returns the
// violations (empty = all hold).
func RunMetamorphic() []string {
	checks := []func() error{
		CheckIdentityPassthrough,
		CheckYawEquivariance,
		CheckSeamContinuity,
		CheckProjectionRoundTrip,
		CheckPassthrough,
	}
	var v []string
	for _, c := range checks {
		if err := c(); err != nil {
			v = append(v, err.Error())
		}
	}
	return v
}
