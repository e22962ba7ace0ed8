package pte

import (
	"math"

	"evr/internal/fixed"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
	"evr/internal/pt"
)

// datapath is the per-pixel fixed-point PT pipeline of a PTU (§6.2). All
// per-pixel arithmetic runs in the configured value format; only the final
// pixel-address generation uses a wider address format (a hardware address
// register is as wide as the frame dimensions require, independent of the
// arithmetic datapath width).
//
// Values are raw integers of the value format (address format where named
// so), operated on through that format's fixed.Core. Per-frame constants
// (rotation matrix from the D2R + Init-RM blocks, FOV tangents, raster steps)
// are computed once in beginFrame, mirroring the configuration registers the
// driver programs per frame; so are the terms of the perspective update that
// depend only on the output column, which a raster-scan PTU likewise holds in
// a column-indexed register file instead of recomputing them on every row.
type datapath struct {
	cfg  Config
	c, a fixed.Core // value-format and address-format arithmetic
	toA  int        // address fractional bits − value fractional bits (≤ 0)

	// Constants quantized to the value format.
	one, half, third int64
	inv2pi, invPi    int64
	fourOverPi, d2r  int64
	invW, invH       int64      // 1/W, 1/H of the viewport
	halfAddr         int64      // 0.5, address format
	pix              [256]int64 // FromInt(c) for every 8-bit channel value

	// Per-frame state.
	m        [3][3]int64 // head rotation matrix
	ty, tyh  int64       // tan(FOVY/2), and that times 1/H
	inW, inH int         // input frame dimensions
	cols     [][3]int64  // per output column i: M[·][0]·px(i)
}

// addressFormat returns the pixel-address format paired with a value format:
// the same fractional precision (capped so the total fits in 64 bits) with a
// 16-bit integer section, enough for 8K-wide frames.
func addressFormat(f fixed.Format) fixed.Format {
	frac := f.FracBits()
	if frac > 48 {
		frac = 48
	}
	return fixed.Format{TotalBits: frac + 16, IntBits: 16}
}

// convert re-quantizes a raw value into the format of to, which has df more
// fractional bits (fewer, if negative), preserving the value: narrowing
// truncates, widening saturates to the sign if the raw leaves int64.
func convert(raw int64, df int, to *fixed.Core) int64 {
	switch {
	case df > 0:
		shifted := raw << uint(df)
		if df >= 63 || shifted>>uint(df) != raw {
			if raw > 0 {
				return to.Sat(math.MaxInt64)
			}
			return to.Sat(math.MinInt64)
		}
		raw = shifted
	case df < 0:
		raw >>= uint(-df)
	}
	return to.Sat(raw)
}

func newDatapath(cfg Config) *datapath {
	f := cfg.Format
	af := addressFormat(f)
	d := &datapath{
		cfg:        cfg,
		c:          *f.Core(),
		a:          *af.Core(),
		toA:        af.FracBits() - f.FracBits(),
		one:        f.One().Raw,
		half:       f.FromFloat(0.5).Raw,
		third:      f.FromFloat(1.0 / 3).Raw,
		inv2pi:     f.FromFloat(1 / (2 * 3.14159265358979)).Raw,
		invPi:      f.FromFloat(1 / 3.14159265358979).Raw,
		fourOverPi: f.FromFloat(4 / 3.14159265358979).Raw,
		d2r:        f.FromFloat(3.14159265358979 / 180).Raw,
		halfAddr:   af.FromFloat(0.5).Raw,
		invW:       f.FromFloat(1 / float64(cfg.Viewport.Width)).Raw,
		invH:       f.FromFloat(1 / float64(cfg.Viewport.Height)).Raw,
		cols:       make([][3]int64, cfg.Viewport.Width),
	}
	for v := range d.pix {
		d.pix[v] = d.c.FromInt(v)
	}
	return d
}

// sinCosDeg runs the D2R block (degrees → radians) followed by the CORDIC
// sin/cos, as in the mapping-engine front end (Fig. 8: "Init. RM D2R").
func (d *datapath) sinCosDeg(deg float64) (sin, cos int64) {
	return d.c.SinCos(d.c.Mul(d.cfg.Format.FromFloat(deg).Raw, d.d2r))
}

// beginFrame programs the per-frame state: the rotation matrix for the head
// orientation and the raster-scan constants for the viewport.
func (d *datapath) beginFrame(o geom.Orientation, inW, inH int) {
	c := &d.c
	sy, cy := d.sinCosDeg(geom.Degrees(o.Yaw))
	sp, cp := d.sinCosDeg(geom.Degrees(-o.Pitch))
	sr, cr := d.sinCosDeg(geom.Degrees(o.Roll))
	// Ry(yaw) — sparse rotation matrix, computed by the four-way MAC unit.
	ry := [3][3]int64{{cy, 0, sy}, {0, d.one, 0}, {c.Neg(sy), 0, cy}}
	// Rx(-pitch).
	rx := [3][3]int64{{d.one, 0, 0}, {0, cp, c.Neg(sp)}, {0, sp, cp}}
	// Rz(roll).
	rz := [3][3]int64{{cr, c.Neg(sr), 0}, {sr, cr, 0}, {0, 0, d.one}}
	d.m = d.matMul(d.matMul(ry, rx), rz)

	// FOV tangents: tan = sin/cos on the CORDIC outputs.
	sx, cx := d.sinCosDeg(geom.Degrees(d.cfg.Viewport.FOVX / 2))
	tx := c.Div(sx, cx)
	syv, cyv := d.sinCosDeg(geom.Degrees(d.cfg.Viewport.FOVY / 2))
	d.ty = c.Div(syv, cyv)
	d.tyh = c.Mul(d.ty, d.invH)

	// Column terms. px = (2(i+0.5)/W − 1)·tx, via an index multiplier:
	// (2i+1)·(tx/W) − tx; then its three products with the matrix's first
	// column. Each is the same saturated integer every row would recompute.
	txw := c.Mul(tx, d.invW)
	for i := range d.cols {
		px := c.Sub(c.MulInt(txw, 2*i+1), tx)
		d.cols[i] = [3]int64{c.Mul(d.m[0][0], px), c.Mul(d.m[1][0], px), c.Mul(d.m[2][0], px)}
	}

	d.inW, d.inH = inW, inH
}

func (d *datapath) matMul(a, b [3][3]int64) [3][3]int64 {
	c := &d.c
	var r [3][3]int64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = c.Add(c.Add(c.Mul(a[i][0], b[0][j]), c.Mul(a[i][1], b[1][j])), c.Mul(a[i][2], b[2][j]))
		}
	}
	return r
}

// rows runs the full pipeline for output rows [j0, j1) in raster order,
// sampling the input frame through the P-MEM line-buffer model.
//
// The perspective-update stage produces the sphere point P′ for pixel (i, j)
// as a (non-normalized) direction M·(px, py, 1), three rows on the four-way
// MAC unit. The px products come from the column registers, the py products
// are formed once per row; the two accumulating adds stay per pixel, in the
// MAC's order, because each saturates.
func (d *datapath) rows(full, out *frame.Frame, pmem *lineBuffer, j0, j1 int) {
	c := &d.c
	for j := j0; j < j1; j++ {
		py := c.Sub(d.ty, c.MulInt(d.tyh, 2*j+1))
		r0, r1, r2 := c.Mul(d.m[0][1], py), c.Mul(d.m[1][1], py), c.Mul(d.m[2][1], py)
		o := out.Pix[j*out.W*3 : (j+1)*out.W*3]
		for i, col := range d.cols {
			x := c.Add(c.Add(col[0], r0), d.m[0][2])
			y := c.Add(c.Add(col[1], r1), d.m[1][2])
			z := c.Add(c.Add(col[2], r2), d.m[2][2])
			u, v := d.mapDir(x, y, z)
			o[3*i], o[3*i+1], o[3*i+2] = d.filter(full, pmem, u, v)
		}
	}
}

// mapDir runs the mapping stage: direction → normalized frame coordinates
// (u, v) in the value format, per the modular structure of Equ. 1–3.
func (d *datapath) mapDir(x, y, z int64) (u, v int64) {
	c := &d.c
	switch d.cfg.Projection {
	case projection.ERP:
		// C2S ∘ LS_erp.
		theta := c.Atan2(x, z)
		rxz := c.Sqrt(c.Add(c.Mul(x, x), c.Mul(z, z)))
		phi := c.Atan2(y, rxz)
		u = c.Add(c.Mul(theta, d.inv2pi), d.half)
		v = c.Sub(d.half, c.Mul(phi, d.invPi))
		return u, v
	case projection.CMP:
		face, s, t := d.cubeIntersect(x, y, z)
		return d.c2f(face, s, t)
	default: // EAC
		face, s, t := d.cubeIntersect(x, y, z)
		s = c.Mul(c.Atan2(s, d.one), d.fourOverPi)
		t = c.Mul(c.Atan2(t, d.one), d.fourOverPi)
		return d.c2f(face, s, t)
	}
}

// cubeIntersect is the fixed-point face selector: dominant axis comparison
// plus two divisions, returning face-local coordinates in [-1, 1].
func (d *datapath) cubeIntersect(x, y, z int64) (projection.Face, int64, int64) {
	c := &d.c
	ax, ay, az := c.Abs(x), c.Abs(y), c.Abs(z)
	switch {
	case ax >= ay && ax >= az:
		if x > 0 {
			return projection.FacePosX, c.Div(c.Neg(z), ax), c.Div(c.Neg(y), ax)
		}
		return projection.FaceNegX, c.Div(z, ax), c.Div(c.Neg(y), ax)
	case ay >= ax && ay >= az:
		if y > 0 {
			return projection.FacePosY, c.Div(x, ay), c.Div(z, ay)
		}
		return projection.FaceNegY, c.Div(x, ay), c.Div(c.Neg(z), ay)
	default:
		if z > 0 {
			return projection.FacePosZ, c.Div(x, az), c.Div(c.Neg(y), az)
		}
		return projection.FaceNegZ, c.Div(c.Neg(x), az), c.Div(c.Neg(y), az)
	}
}

// facePlacement mirrors the projection package's 3×2 layout.
var facePlacement = [6][2]int{
	projection.FacePosX: {0, 0},
	projection.FaceNegX: {1, 0},
	projection.FacePosY: {2, 0},
	projection.FaceNegY: {0, 1},
	projection.FacePosZ: {1, 1},
	projection.FaceNegZ: {2, 1},
}

// c2f is the fixed-point cube-to-frame block (Fig. 10): face coordinates in
// [-1, 1] → normalized frame coordinates.
func (d *datapath) c2f(face projection.Face, s, t int64) (u, v int64) {
	c := &d.c
	p := facePlacement[face]
	fu := c.Add(s, d.one) >> 1 // (s+1)/2
	fv := c.Add(t, d.one) >> 1
	u = c.Mul(c.Add(c.FromInt(p[0]), fu), d.third)
	v = c.Add(c.FromInt(p[1]), fv) >> 1
	return u, v
}

// filter runs address generation and the filtering stage for normalized
// frame coordinates (u, v). Taps are addressed through frame.Stencil, the
// edge policy every sampler shares: rows clamp at the frame border like the
// filtering hardware; columns wrap for ERP input (the hardware address
// generator computes x mod W, since the left and right edges of an
// equirectangular frame meet at the ±180° seam) and clamp for the cubemap
// layouts. Each distinct stencil row touches P-MEM once, top row first.
func (d *datapath) filter(full *frame.Frame, pmem *lineBuffer, u, v int64) (r, g, b byte) {
	c, a := &d.c, &d.a
	// Address generation: continuous pixel coordinates in the wide format.
	uPix := a.Sub(a.MulInt(convert(u, d.toA, a), d.inW), d.halfAddr)
	vPix := a.Sub(a.MulInt(convert(v, d.toA, a), d.inH), d.halfAddr)
	wrap := d.cfg.Projection.WrapsX()

	if d.cfg.Filter == pt.Nearest {
		// The nearest texel is the top-left tap of its own stencil.
		x, y, _, _ := frame.Stencil(full.W, full.H, wrap, a.Int(a.Add(uPix, d.halfAddr)), a.Int(a.Add(vPix, d.halfAddr)))
		pmem.touch(y)
		p := full.Pix[(y*full.W+x)*3:][:3]
		return p[0], p[1], p[2]
	}

	// Bilinear: integer corner plus fractional weights.
	x0 := a.Int(uPix)
	y0 := a.Int(vPix)
	fx := convert(a.Sub(uPix, a.FromInt(x0)), -d.toA, c)
	fy := convert(a.Sub(vPix, a.FromInt(y0)), -d.toA, c)
	gx := c.Sub(d.one, fx)
	gy := c.Sub(d.one, fy)

	xa, ya, xb, yb := frame.Stencil(full.W, full.H, wrap, x0, y0)
	pmem.touch(ya)
	pmem.touch(yb) // returns at once when yb == ya, the most recent row
	rowA, rowB := full.Pix[ya*full.W*3:], full.Pix[yb*full.W*3:]
	p00, p10 := rowA[xa*3:][:3], rowA[xb*3:][:3]
	p01, p11 := rowB[xa*3:][:3], rowB[xb*3:][:3]

	w := [4]int64{c.Mul(gx, gy), c.Mul(fx, gy), c.Mul(gx, fy), c.Mul(fx, fy)}
	return d.blend(&w, p00[0], p10[0], p01[0], p11[0]), d.blend(&w, p00[1], p10[1], p01[1], p11[1]), d.blend(&w, p00[2], p10[2], p01[2], p11[2])
}

// blend is one channel of the filtering stage: four weight MACs in the value
// format, accumulated in order, rounded by adding ½ and truncating.
func (d *datapath) blend(w *[4]int64, c00, c10, c01, c11 byte) byte {
	c := &d.c
	acc := c.Add(c.Add(c.Add(c.Add(
		c.Mul(w[0], d.pix[c00]),
		c.Mul(w[1], d.pix[c10])),
		c.Mul(w[2], d.pix[c01])),
		c.Mul(w[3], d.pix[c11])),
		d.half)
	return byte(min(max(c.Int(acc), 0), 255))
}
