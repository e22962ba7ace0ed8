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

// Map returns the input-frame pixel coordinates for output pixel (i, j):
// (u, v) in pixels, not yet rounded — the filtering stage decides how to
// sample. It performs the exact float operations of Viewport.Ray + ToPlane.
// Renders walk Row instead; Map (with Config.Sample) stays as Row's
// per-pixel oracle.
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

// ColChunk is how many output columns one Chunk spans: a raster walk maps
// a row ColChunk columns at a time, so its scratch is a fixed ~16 kB on the
// caller's stack and a render allocates nothing per row.
const ColChunk = 256

// Chunk is the caller-owned state of a chunked raster walk: the per-column
// half of the perspective update for the n output columns Mapper.Columns
// last set, and the direction rows Row's passes write.
type Chunk struct {
	n       int
	cols    [ColChunk][3]float64
	x, y, z [ColChunk]float64
}

// Columns points ch at output columns [i0, min(i0+ColChunk, width)) and
// returns their count. The ray of pixel (i, j) is M·(px_i, py_j, 1);
// Mat3.Apply sums each component as (M[r][0]·px + M[r][1]·py) + M[r][2],
// so M[r][0]·px_i is formed here once per column and Row adds the rest.
func (m *Mapper) Columns(ch *Chunk, i0 int) int {
	ch.n = min(ColChunk, int(m.vpW)-i0)
	for k := 0; k < ch.n; k++ {
		x := (2*(float64(i0+k)+0.5)/m.vpW - 1) * m.tx
		ch.cols[k] = [3]float64{m.mat[0][0] * x, m.mat[1][0] * x, m.mat[2][0] * x}
	}
	return ch.n
}

// Row fills u[k], v[k] with Map(i0+k, j) — bit for bit — for the n columns
// [i0, i0+n) ch was set to; u and v must hold n. It forms M[r][1]·py_j once, then runs in
// passes over the chunk: the two adds per pixel in Mat3.Apply's order and
// Normalize; projection.ToPlaneRow; the pixel scaling.
func (m *Mapper) Row(ch *Chunk, j int, u, v []float64) {
	n := ch.n
	u, v = u[:n], v[:n]
	x, y, z := ch.x[:n], ch.y[:n], ch.z[:n]
	py := (1 - 2*(float64(j)+0.5)/m.vpH) * m.ty
	r0, r1, r2 := m.mat[0][1]*py, m.mat[1][1]*py, m.mat[2][1]*py
	for k, col := range ch.cols[:n] {
		d := geom.Vec3{
			X: col[0] + r0 + m.mat[0][2],
			Y: col[1] + r1 + m.mat[1][2],
			Z: col[2] + r2 + m.mat[2][2],
		}.Normalize()
		x[k], y[k], z[k] = d.X, d.Y, d.Z
	}
	projection.ToPlaneRow(m.proj, x, y, z, u, v)
	for k := range u {
		u[k], v[k] = u[k]*m.fullW-0.5, v[k]*m.fullH-0.5
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
	var ch Chunk
	var u, v [ColChunk]float64
	for i0 := 0; i0 < out.W; i0 += ColChunk {
		n := m.Columns(&ch, i0)
		for j := j0; j < j1; j++ {
			m.Row(&ch, j, u[:n], v[:n])
			c.sampleRow(full, u[:n], v[:n], out.Pix[(j*out.W+i0)*3:][:n*3])
		}
	}
}

// sampleRow is Sample over one mapped row, writing pixel k to dst[3k:3k+3]:
// the filter and edge policy are picked once per row, not per pixel.
func (c Config) sampleRow(full *frame.Frame, u, v []float64, dst []byte) {
	v = v[:len(u)]
	wrap := c.Projection.WrapsX()
	switch {
	case c.Filter == Bilinear && wrap:
		for k := range u {
			p := dst[3*k:][:3]
			p[0], p[1], p[2] = full.BilinearAtWrapX(u[k], v[k])
		}
	case c.Filter == Bilinear:
		for k := range u {
			p := dst[3*k:][:3]
			p[0], p[1], p[2] = full.BilinearAt(u[k], v[k])
		}
	case wrap:
		for k := range u {
			p := dst[3*k:][:3]
			p[0], p[1], p[2] = full.AtWrapX(int(math.Round(u[k])), int(math.Round(v[k])))
		}
	default:
		for k := range u {
			p := dst[3*k:][:3]
			p[0], p[1], p[2] = full.At(int(math.Round(u[k])), int(math.Round(v[k])))
		}
	}
}
