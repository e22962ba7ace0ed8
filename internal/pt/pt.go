// Package pt implements the projective transformation (PT) that dominates
// the "VR tax" (§2, §6.1 of the paper): producing the planar FOV frame a
// user actually sees from a full 360° frame stored in a spherical-to-planar
// projection.
//
// For each output pixel P(i, j) the algorithm runs three stages:
//
//  1. perspective update — find the point P′ on the viewing sphere that
//     corresponds to P under the current head orientation;
//  2. mapping — project P′ to the coordinates P″(u, v) in the input frame
//     under the video's projection method (ERP/CMP/EAC);
//  3. filtering — sample the input frame around P″ (nearest neighbor or
//     bilinear) to produce the 24-bit RGB value of P.
//
// This package is the double-precision reference implementation — the
// behaviour the GPU texture-mapping path computes. The PTE accelerator
// (package pte) implements the identical pipeline in fixed point; Fig. 11
// compares the two.
package pt

import (
	"fmt"
	"math"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
)

// Filter selects the pixel reconstruction function of the filtering stage.
type Filter int

const (
	// Nearest picks the nearest input pixel.
	Nearest Filter = iota
	// Bilinear blends the four surrounding input pixels.
	Bilinear
)

// String implements fmt.Stringer.
func (f Filter) String() string {
	switch f {
	case Nearest:
		return "nearest"
	case Bilinear:
		return "bilinear"
	default:
		return fmt.Sprintf("Filter(%d)", int(f))
	}
}

// Config fixes the parameters of a projective transformation: the input
// video's projection method, the reconstruction filter, and the output
// viewport (FOV size and display resolution). These are the eight per-pixel
// algorithm parameters of §6.1 in aggregate form.
type Config struct {
	Projection projection.Method
	Filter     Filter
	Viewport   projection.Viewport
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Viewport.Width <= 0 || c.Viewport.Height <= 0 {
		return fmt.Errorf("pt: viewport %dx%d must be positive", c.Viewport.Width, c.Viewport.Height)
	}
	if c.Viewport.FOVX <= 0 || c.Viewport.FOVX >= math.Pi || c.Viewport.FOVY <= 0 || c.Viewport.FOVY >= math.Pi {
		return fmt.Errorf("pt: FOV %v x %v rad out of (0, π)", c.Viewport.FOVX, c.Viewport.FOVY)
	}
	switch c.Projection {
	case projection.ERP, projection.CMP, projection.EAC:
	default:
		return fmt.Errorf("pt: unknown projection %v", c.Projection)
	}
	switch c.Filter {
	case Nearest, Bilinear:
	default:
		return fmt.Errorf("pt: unknown filter %v", c.Filter)
	}
	return nil
}

// MapPixel runs the perspective-update and mapping stages for output pixel
// (i, j): it returns the input-frame coordinates (u, v) in pixels (not yet
// normalized to integers — the filtering stage decides how to sample). Only
// the input frame's dimensions matter here, so the signature takes them
// directly; hot loops should build a Mapper once per frame instead of
// calling this per pixel.
func (c Config) MapPixel(o geom.Orientation, fullW, fullH, i, j int) (u, v float64) {
	m := c.NewMapper(o, fullW, fullH)
	return m.Map(i, j)
}

// Mapper holds the per-frame constants of the perspective-update and mapping
// stages: the head rotation matrix, the FOV tangents, and the input-frame
// scale factors. These depend only on (Config, Orientation, input size), so
// a render computes them once instead of re-deriving them per pixel. Map is
// a pure function of (i, j); a Mapper may be shared by concurrent workers.
type Mapper struct {
	proj         projection.Method
	mat          geom.Mat3
	tx, ty       float64
	vpW, vpH     float64
	fullW, fullH float64
}

// NewMapper precomputes the per-frame mapping state for head orientation o
// and an input frame of the given dimensions.
func (c Config) NewMapper(o geom.Orientation, fullW, fullH int) *Mapper {
	return &Mapper{
		proj:  c.Projection,
		mat:   o.Matrix(),
		tx:    math.Tan(c.Viewport.FOVX / 2),
		ty:    math.Tan(c.Viewport.FOVY / 2),
		vpW:   float64(c.Viewport.Width),
		vpH:   float64(c.Viewport.Height),
		fullW: float64(fullW),
		fullH: float64(fullH),
	}
}

// Map returns the input-frame pixel coordinates for output pixel (i, j).
// It performs the exact float operations of Viewport.Ray + ToPlane, so the
// result is bit-identical to the per-pixel MapPixel path. Renders walk
// Band instead; Map (with Config.Sample) stays as Band's per-pixel oracle.
func (m *Mapper) Map(i, j int) (u, v float64) {
	px := (2*(float64(i)+0.5)/m.vpW - 1) * m.tx
	py := (1 - 2*(float64(j)+0.5)/m.vpH) * m.ty
	dir := m.mat.Apply(geom.Vec3{X: px, Y: py, Z: 1}).Normalize()
	nu, nv := projection.ToPlane(m.proj, dir)
	// Map normalized coords to continuous pixel coordinates such that
	// nu=0 → -0.5 (left edge) and nu=1 → W-0.5 (right edge), i.e. pixel
	// centers sit at integer coordinates.
	return nu*m.fullW - 0.5, nv*m.fullH - 0.5
}

// colChunk is how many output columns of perspective-update products a band
// holds at once: on its stack, so a render allocates nothing per column.
const colChunk = 256

// Band runs the perspective-update and mapping stages over output rows
// [j0, j1), calling px with every pixel's input-frame coordinates — the value
// Map returns for (i, j), bit for bit — rows in raster order within each
// chunk of colChunk columns. It is Map with the raster scan's invariants
// hoisted: M·(px, py, 1) needs M[·][0]·px once per column and M[·][1]·py once
// per row, and only the two adds, kept in Mat3.Apply's order, per pixel.
func (m *Mapper) Band(j0, j1 int, px func(i, j int, u, v float64)) {
	var cols [colChunk][3]float64
	for i0, w := 0, int(m.vpW); i0 < w; i0 += colChunk {
		n := min(colChunk, w-i0)
		for k := 0; k < n; k++ {
			x := (2*(float64(i0+k)+0.5)/m.vpW - 1) * m.tx
			cols[k] = [3]float64{m.mat[0][0] * x, m.mat[1][0] * x, m.mat[2][0] * x}
		}
		for j := j0; j < j1; j++ {
			y := (1 - 2*(float64(j)+0.5)/m.vpH) * m.ty
			r0, r1, r2 := m.mat[0][1]*y, m.mat[1][1]*y, m.mat[2][1]*y
			for k, col := range cols[:n] {
				dir := geom.Vec3{
					X: col[0] + r0 + m.mat[0][2],
					Y: col[1] + r1 + m.mat[1][2],
					Z: col[2] + r2 + m.mat[2][2],
				}.Normalize()
				nu, nv := projection.ToPlane(m.proj, dir)
				px(i0+k, j, nu*m.fullW-0.5, nv*m.fullH-0.5)
			}
		}
	}
}

// Sample runs the filtering stage at input coordinates (u, v) under the
// projection's edge policy (frame.Resolve): ERP input wraps in longitude, so
// samples crossing the ±180° seam blend the opposite edge; the cubemap
// projections keep the clamped border policy of their face layout.
func (c Config) Sample(full *frame.Frame, u, v float64) (r, g, b byte) {
	wrap := c.Projection.WrapsX()
	if c.Filter == Bilinear {
		if wrap {
			return full.BilinearAtWrapX(u, v)
		}
		return full.BilinearAt(u, v)
	}
	x, y := int(math.Round(u)), int(math.Round(v))
	if wrap {
		return full.AtWrapX(x, y)
	}
	return full.At(x, y)
}

// Render executes the full PT for one frame: it produces the FOV frame for
// head orientation o from the full panoramic frame. This is the reference
// implementation of the operation the paper measures at ~40% of VR compute
// and memory energy (Fig. 3b). It panics on an invalid configuration; use
// RenderChecked to get the error instead.
func Render(c Config, full *frame.Frame, o geom.Orientation) *frame.Frame {
	out, err := RenderChecked(c, full, o)
	if err != nil {
		panic(err)
	}
	return out
}

// RenderChecked is Render with up-front validation: it reports an invalid
// configuration or input frame as an error instead of panicking mid-render.
func RenderChecked(c Config, full *frame.Frame, o geom.Orientation) (*frame.Frame, error) {
	if err := c.check(full); err != nil {
		return nil, err
	}
	out := frame.New(c.Viewport.Width, c.Viewport.Height)
	c.renderRows(full, o, out, 0, c.Viewport.Height)
	return out, nil
}

// check is the up-front validation of the float render entry points.
func (c Config) check(full *frame.Frame) error {
	if err := c.Validate(); err != nil {
		return err
	}
	return CheckInput(full)
}

// CheckInput is the one input-frame check behind every renderer's checked
// entry point (pt, ptlut, pte): a nil, empty or short-buffered panorama is
// an error, never a nil dereference or an out-of-range index mid-render.
func CheckInput(full *frame.Frame) error {
	if full == nil || full.W <= 0 || full.H <= 0 {
		return fmt.Errorf("pt: input frame must be non-empty")
	}
	if len(full.Pix) < full.W*full.H*3 {
		return fmt.Errorf("pt: input frame holds %d bytes, %dx%d needs %d", len(full.Pix), full.W, full.H, full.W*full.H*3)
	}
	return nil
}

// renderRows renders output rows [j0, j1) into out. Rows are independent, so
// disjoint row bands of the same output frame may render concurrently.
func (c Config) renderRows(full *frame.Frame, o geom.Orientation, out *frame.Frame, j0, j1 int) {
	m := c.NewMapper(o, full.W, full.H)
	pix, w := out.Pix, out.W
	m.Band(j0, j1, func(i, j int, u, v float64) {
		p := pix[(j*w+i)*3:][:3]
		p[0], p[1], p[2] = c.Sample(full, u, v)
	})
}
