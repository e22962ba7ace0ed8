package pte

import (
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
// Per-frame constants (rotation matrices from the D2R + Init-RM blocks, FOV
// tangents, raster steps) are computed once in beginFrame, mirroring the
// configuration registers the driver programs per frame.
type datapath struct {
	cfg Config
	f   fixed.Format // value (datapath) format
	af  fixed.Format // address format for pixel coordinates

	// Constants quantized to the value format.
	one, half, third  fixed.Fix
	inv2pi, invPi     fixed.Fix
	fourOverPi, d2r   fixed.Fix
	halfAddr, oneAddr fixed.Fix
	pixMax            fixed.Fix

	// Per-frame state.
	m          [3][3]fixed.Fix // head rotation matrix
	tx, ty     fixed.Fix       // tan(FOV/2)
	inW, inH   int             // input frame dimensions
	invW, invH fixed.Fix       // 1/W, 1/H of the *viewport*
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

// convert re-quantizes x into format to, preserving the value.
func convert(x fixed.Fix, to fixed.Format) fixed.Fix {
	df := to.FracBits() - x.Fmt.FracBits()
	raw := x.Raw
	switch {
	case df > 0:
		shifted := raw << uint(df)
		if df >= 63 || shifted>>uint(df) != raw {
			// The widened raw overflows int64; saturate to the sign.
			if raw > 0 {
				return fixed.Fix{Raw: to.FromFloat(1e18).Raw, Fmt: to}
			}
			return fixed.Fix{Raw: to.FromFloat(-1e18).Raw, Fmt: to}
		}
		raw = shifted
	case df < 0:
		raw >>= uint(-df)
	}
	return to.FromRaw(raw)
}

func newDatapath(cfg Config) *datapath {
	f := cfg.Format
	af := addressFormat(f)
	return &datapath{
		cfg:        cfg,
		f:          f,
		af:         af,
		one:        f.One(),
		half:       f.FromFloat(0.5),
		third:      f.FromFloat(1.0 / 3),
		inv2pi:     f.FromFloat(1 / (2 * 3.14159265358979)),
		invPi:      f.FromFloat(1 / 3.14159265358979),
		fourOverPi: f.FromFloat(4 / 3.14159265358979),
		d2r:        f.FromFloat(3.14159265358979 / 180),
		halfAddr:   af.FromFloat(0.5),
		oneAddr:    af.One(),
		pixMax:     f.FromInt(255),
		invW:       f.FromFloat(1 / float64(cfg.Viewport.Width)),
		invH:       f.FromFloat(1 / float64(cfg.Viewport.Height)),
	}
}

// sinCosDeg runs the D2R block (degrees → radians) followed by the CORDIC
// sin/cos, as in the mapping-engine front end (Fig. 8: "Init. RM D2R").
func (d *datapath) sinCosDeg(deg float64) (sin, cos fixed.Fix) {
	a := d.f.FromFloat(deg).Mul(d.d2r)
	return d.f.SinCos(a)
}

// beginFrame programs the per-frame state: rotation matrices for the head
// orientation and the raster-scan constants for the viewport.
func (d *datapath) beginFrame(o geom.Orientation, inW, inH int) {
	sy, cy := d.sinCosDeg(geom.Degrees(o.Yaw))
	sp, cp := d.sinCosDeg(geom.Degrees(-o.Pitch))
	sr, cr := d.sinCosDeg(geom.Degrees(o.Roll))
	z := d.f.Zero()
	// Ry(yaw) — sparse rotation matrix, computed by the four-way MAC unit.
	ry := [3][3]fixed.Fix{{cy, z, sy}, {z, d.one, z}, {sy.Neg(), z, cy}}
	// Rx(-pitch).
	rx := [3][3]fixed.Fix{{d.one, z, z}, {z, cp, sp.Neg()}, {z, sp, cp}}
	// Rz(roll).
	rz := [3][3]fixed.Fix{{cr, sr.Neg(), z}, {sr, cr, z}, {z, z, d.one}}
	d.m = matMul(matMul(ry, rx), rz)

	// FOV tangents: tan = sin/cos on the CORDIC outputs.
	sx, cx := d.sinCosDeg(geom.Degrees(d.cfg.Viewport.FOVX / 2))
	d.tx = sx.Div(cx)
	syv, cyv := d.sinCosDeg(geom.Degrees(d.cfg.Viewport.FOVY / 2))
	d.ty = syv.Div(cyv)

	d.inW, d.inH = inW, inH
}

func matMul(a, b [3][3]fixed.Fix) [3][3]fixed.Fix {
	var r [3][3]fixed.Fix
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = a[i][0].Mul(b[0][j]).Add(a[i][1].Mul(b[1][j])).Add(a[i][2].Mul(b[2][j]))
		}
	}
	return r
}

// perspective runs the perspective-update stage for output pixel (i, j):
// the sphere point P′ as a (non-normalized) direction vector in fixed point.
func (d *datapath) perspective(i, j int) (x, y, z fixed.Fix) {
	// px = (2(i+0.5)/W − 1)·tx, via an index multiplier: (2i+1)·(tx/W) − tx.
	px := d.tx.Mul(d.invW).MulInt(2*i + 1).Sub(d.tx)
	py := d.ty.Sub(d.ty.Mul(d.invH).MulInt(2*j + 1))
	// dir = M · (px, py, 1): three rows on the four-way MAC unit.
	x = d.m[0][0].Mul(px).Add(d.m[0][1].Mul(py)).Add(d.m[0][2])
	y = d.m[1][0].Mul(px).Add(d.m[1][1].Mul(py)).Add(d.m[1][2])
	z = d.m[2][0].Mul(px).Add(d.m[2][1].Mul(py)).Add(d.m[2][2])
	return x, y, z
}

// mapDir runs the mapping stage: direction → normalized frame coordinates
// (u, v) in the value format, per the modular structure of Equ. 1–3.
func (d *datapath) mapDir(x, y, z fixed.Fix) (u, v fixed.Fix) {
	switch d.cfg.Projection {
	case projection.ERP:
		// C2S ∘ LS_erp.
		theta := d.f.Atan2(x, z)
		rxz := d.f.Sqrt(x.Mul(x).Add(z.Mul(z)))
		phi := d.f.Atan2(y, rxz)
		u = theta.Mul(d.inv2pi).Add(d.half)
		v = d.half.Sub(phi.Mul(d.invPi))
		return u, v
	case projection.CMP:
		face, s, t := d.cubeIntersect(x, y, z)
		return d.c2f(face, s, t)
	default: // EAC
		face, s, t := d.cubeIntersect(x, y, z)
		s = d.f.Atan2(s, d.one).Mul(d.fourOverPi)
		t = d.f.Atan2(t, d.one).Mul(d.fourOverPi)
		return d.c2f(face, s, t)
	}
}

// cubeIntersect is the fixed-point face selector: dominant axis comparison
// plus two divisions, returning face-local coordinates in [-1, 1].
func (d *datapath) cubeIntersect(x, y, z fixed.Fix) (projection.Face, fixed.Fix, fixed.Fix) {
	ax, ay, az := x.Abs(), y.Abs(), z.Abs()
	switch {
	case ax.Cmp(ay) >= 0 && ax.Cmp(az) >= 0:
		if x.Raw > 0 {
			return projection.FacePosX, z.Neg().Div(ax), y.Neg().Div(ax)
		}
		return projection.FaceNegX, z.Div(ax), y.Neg().Div(ax)
	case ay.Cmp(ax) >= 0 && ay.Cmp(az) >= 0:
		if y.Raw > 0 {
			return projection.FacePosY, x.Div(ay), z.Div(ay)
		}
		return projection.FaceNegY, x.Div(ay), z.Neg().Div(ay)
	default:
		if z.Raw > 0 {
			return projection.FacePosZ, x.Div(az), y.Neg().Div(az)
		}
		return projection.FaceNegZ, x.Neg().Div(az), y.Neg().Div(az)
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
func (d *datapath) c2f(face projection.Face, s, t fixed.Fix) (u, v fixed.Fix) {
	p := facePlacement[face]
	fu := s.Add(d.one).Shr(1) // (s+1)/2
	fv := t.Add(d.one).Shr(1)
	u = d.f.FromInt(p[0]).Add(fu).Mul(d.third)
	v = d.f.FromInt(p[1]).Add(fv).Shr(1)
	return u, v
}

// pixel runs the full pipeline for output pixel (i, j), sampling the input
// frame through the P-MEM line-buffer model.
func (d *datapath) pixel(full *frame.Frame, pmem *lineBuffer, i, j int) (r, g, b byte) {
	x, y, z := d.perspective(i, j)
	u, v := d.mapDir(x, y, z)

	// Address generation: continuous pixel coordinates in the wide format.
	uPix := convert(u, d.af).MulInt(d.inW).Sub(d.halfAddr)
	vPix := convert(v, d.af).MulInt(d.inH).Sub(d.halfAddr)

	if d.cfg.Filter == pt.Nearest {
		xi := uPix.Add(d.halfAddr).Int()
		yi := vPix.Add(d.halfAddr).Int()
		return d.fetch(full, pmem, xi, yi)
	}

	// Bilinear: integer corner plus fractional weights.
	x0 := uPix.Int()
	y0 := vPix.Int()
	fx := convert(uPix.Sub(d.af.FromInt(x0)), d.f)
	fy := convert(vPix.Sub(d.af.FromInt(y0)), d.f)
	gx := d.one.Sub(fx)
	gy := d.one.Sub(fy)

	r00, g00, b00 := d.fetch(full, pmem, x0, y0)
	r10, g10, b10 := d.fetch(full, pmem, x0+1, y0)
	r01, g01, b01 := d.fetch(full, pmem, x0, y0+1)
	r11, g11, b11 := d.fetch(full, pmem, x0+1, y0+1)

	w00 := gx.Mul(gy)
	w10 := fx.Mul(gy)
	w01 := gx.Mul(fy)
	w11 := fx.Mul(fy)
	blend := func(c00, c10, c01, c11 byte) byte {
		acc := w00.Mul(d.f.FromInt(int(c00))).
			Add(w10.Mul(d.f.FromInt(int(c10)))).
			Add(w01.Mul(d.f.FromInt(int(c01)))).
			Add(w11.Mul(d.f.FromInt(int(c11)))).
			Add(d.half)
		n := acc.Int()
		if n < 0 {
			n = 0
		}
		if n > 255 {
			n = 255
		}
		return byte(n)
	}
	return blend(r00, r10, r01, r11), blend(g00, g10, g01, g11), blend(b00, b10, b01, b11)
}

// fetch reads one input pixel through the line buffer, at the address the
// shared edge policy (frame.Resolve) gives it: rows clamp at the frame
// border like the filtering hardware; columns wrap for ERP input (the
// hardware address generator computes x mod W, since the left and right
// edges of an equirectangular frame meet at the ±180° seam) and clamp for
// the cubemap layouts.
func (d *datapath) fetch(full *frame.Frame, pmem *lineBuffer, x, y int) (r, g, b byte) {
	x, y = frame.Resolve(full.W, full.H, d.cfg.Projection.WrapsX(), x, y)
	pmem.touch(y)
	i := (y*full.W + x) * 3
	return full.Pix[i], full.Pix[i+1], full.Pix[i+2]
}
