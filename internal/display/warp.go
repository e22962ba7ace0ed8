package display

import (
	"fmt"
	"math"
	"runtime"

	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/projection"
)

// Warp is the display processor's hit-path kernel (§2): it shows the user's
// view out of a margin-padded FOV frame pre-rendered for a nearby pose. Both
// frames are tangent-plane images about the same centre, so a head rotation R
// between them is one planar homography, K_src · R · K_vp⁻¹: a 3×3 product and
// one projective divide, no trig and no sphere — still plain pixel
// manipulation, not PT.
//
// It is built like a texture unit. Along each output row the exact source
// coordinate and its rate are taken every span pixels (and at the row's
// last), from one divide — warpSpan pixels, fewer on a narrow viewport; in
// between the coordinate steps as the cubic through both ends, by forward
// differences in coordBits fixed point. The bilinear weights are weightBits
// wide, and a texel's three channels sit in 16-bit lanes of one uint64, so
// one multiply-add weighs all three. Samples
// that fall outside the source frame (corners of a viewport turned away from
// the frame's centre) clamp to its edge, as frame.Resolve does for a
// non-wrapping axis.
//
// A Warp holds only the session's geometry, so it is safe for concurrent use.
type Warp struct {
	w, h             int
	span             int     // output pixels per projective divide
	vpTanX, vpTanY   float64 // tan of the viewport's half-FOVs
	srcTanX, srcTanY float64 // and of the source frames'
}

const (
	// warpSpan is the most output pixels of a row that share one
	// projective divide. A span also covers at most spanTan of the
	// viewport's tangent plane (focal distance 1): the stepped coordinate's
	// error grows as the fourth power of that extent, so a narrow viewport
	// takes more divides per pixel. 16 pixels of the gated benchmark's
	// 213-pixel-wide 110° viewport cover 0.2145; on the player's default
	// 64-pixel one a span is 4 pixels.
	warpSpan = 16
	spanTan  = 0.22
	// coordBits is the fractional precision of a stepped source coordinate.
	coordBits = 16
	// weightBits is the precision of a bilinear weight.
	weightBits = 8
	// laneRound is one half in each channel lane, in weightBits fraction.
	laneRound = 1<<(weightBits-1) | 1<<(weightBits-1)<<16 | 1<<(weightBits-1)<<32
	// coordLimit bounds a source frame's sides and an anchor's position, and
	// rateLimit an anchor's rate (texels per output pixel), so that a stepped
	// position stays inside its 32-bit lane.
	coordLimit = 1 << 14
	rateLimit  = 1 << 10
)

// NewWarp returns the hit-path warp onto viewport vp from source frames
// rendered over fovX×fovY radians about their centre.
func NewWarp(vp projection.Viewport, fovX, fovY float64) (*Warp, error) {
	if vp.Width <= 0 || vp.Height <= 0 {
		return nil, fmt.Errorf("display: target %dx%d must be positive", vp.Width, vp.Height)
	}
	for _, a := range []float64{vp.FOVX, vp.FOVY, fovX, fovY} {
		if !(a > 0 && a < math.Pi) {
			return nil, fmt.Errorf("display: field of view %v rad outside (0, π)", a)
		}
	}
	vpTanX := math.Tan(vp.FOVX / 2)
	return &Warp{
		w: vp.Width, h: vp.Height,
		span:   min(warpSpan, max(1, int(spanTan*float64(vp.Width)/(2*vpTanX)))),
		vpTanX: vpTanX, vpTanY: math.Tan(vp.FOVY / 2),
		srcTanX: math.Tan(fovX / 2), srcTanY: math.Tan(fovY / 2),
	}, nil
}

// homography maps output pixel (i, j, 1) to homogeneous source texel
// coordinates (U, V, Z), u = U/Z, v = V/Z, for the rotation r that takes the
// viewport's head frame into the source frame's (r = srcPoseᵀ · viewPose),
// with projection.Viewport's pixel-centre convention on both sides.
func (wp *Warp) homography(r geom.Mat3, srcW, srcH int) geom.Mat3 {
	// Output pixel → viewport tangent plane (focal distance 1).
	ax, bx := 2*wp.vpTanX/float64(wp.w), wp.vpTanX*(1/float64(wp.w)-1)
	ay, by := -2*wp.vpTanY/float64(wp.h), wp.vpTanY*(1-1/float64(wp.h))
	vpInv := geom.Mat3{{ax, 0, bx}, {0, ay, by}, {0, 0, 1}}
	// Source tangent plane → texel coordinates.
	cu, cv := float64(srcW)/(2*wp.srcTanX), float64(srcH)/(2*wp.srcTanY)
	src := geom.Mat3{{cu, 0, float64(srcW)/2 - 0.5}, {0, -cv, float64(srcH)/2 - 0.5}, {0, 0, 1}}
	return src.Mul(r).Mul(vpInv)
}

// window is the rectangle of source texels a warp samples, inclusive.
type window struct{ x0, y0, x1, y1 int }

// freeTexels keeps packed-texel buffers for reuse across frames and
// sessions: the player builds one Warp per session, a session is a few dozen
// frames, and a sync.Pool drops an idle buffer at the second garbage
// collection after its last use, which the displayed frames' own garbage
// brings round every few dozen frames. A warp never blocks, so no more of
// them run at once than there are Ps: the list holds one buffer per P.
// Buffers over maxTexelReuse pairs (1 MiB) are not kept. Packing pays for
// the list: reading the four taps straight from the frame's bytes, with no
// buffer, ran a hit frame as slowly as the central crop this warp replaced,
// and the packed taps at 0.77 of its time.
var freeTexels = make(chan *[][2]uint64, runtime.GOMAXPROCS(0))

const maxTexelReuse = 1 << 16

// getTexels takes a buffer for pack from the free list, or a new one.
func getTexels() *[][2]uint64 {
	select {
	case buf := <-freeTexels:
		return buf
	default:
		return new([][2]uint64)
	}
}

// putTexels returns a buffer to the free list, unless the list is full or
// the buffer too big to keep.
func putTexels(buf *[][2]uint64) {
	if cap(*buf) > maxTexelReuse {
		return
	}
	select {
	case freeTexels <- buf:
	default:
	}
}

// pack lays out the window of f for the blend: each texel's channels in 16-bit
// lanes of one uint64, stored beside its right neighbour so one load fetches a
// tap's pair. The window's last column and row are repeated once more, so a
// tap's neighbours always exist (a sample on that column or row weighs them
// 0).
func pack(buf *[][2]uint64, f *frame.Frame, win window) (tex [][2]uint64, stride int) {
	stride = win.x1 - win.x0 + 1
	rows := win.y1 - win.y0 + 1
	if n := stride * (rows + 1); cap(*buf) < n {
		*buf = make([][2]uint64, n)
	}
	tex = (*buf)[:stride*(rows+1)]
	for y := range rows {
		src := f.Pix[((win.y0+y)*f.W+win.x0)*3:][:stride*3]
		row := tex[y*stride:][:stride]
		prev := uint64(src[0]) | uint64(src[1])<<16 | uint64(src[2])<<32
		for x := 1; x < stride; x++ {
			p := src[x*3:][:3]
			t := uint64(p[0]) | uint64(p[1])<<16 | uint64(p[2])<<32
			row[x-1] = [2]uint64{prev, t}
			prev = t
		}
		row[stride-1] = [2]uint64{prev, prev}
	}
	copy(tex[rows*stride:], tex[(rows-1)*stride:][:stride])
	return tex, stride
}

// Apply warps one source frame into a new w×h frame for rotation r.
func (wp *Warp) Apply(f *frame.Frame, r geom.Mat3) (*frame.Frame, error) {
	out := frame.New(wp.w, wp.h)
	if err := wp.ApplyInto(out, f, r); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyInto warps f into out, which must be a w×h frame; every pixel of out
// is written. r takes the viewport's head frame into the frame's, and must
// keep every viewport ray in front of the frame's plane. A nil, empty,
// short-buffered or oversized source, a mis-sized destination, or an r that
// is not such a rotation is an error.
func (wp *Warp) ApplyInto(out, f *frame.Frame, r geom.Mat3) error {
	if f == nil || f.W <= 0 || f.H <= 0 {
		return fmt.Errorf("display: source frame must be non-empty")
	}
	if f.W > coordLimit || f.H > coordLimit {
		return fmt.Errorf("display: source frame %dx%d exceeds the warp's %d texels a side", f.W, f.H, coordLimit)
	}
	if len(f.Pix) < f.W*f.H*3 {
		return fmt.Errorf("display: source frame holds %d bytes, %dx%d needs %d", len(f.Pix), f.W, f.H, f.W*f.H*3)
	}
	if out == nil || out.W != wp.w || out.H != wp.h || len(out.Pix) < wp.w*wp.h*3 {
		return fmt.Errorf("display: destination must be a %dx%d frame", wp.w, wp.h)
	}
	for _, row := range r {
		for _, x := range row {
			if !(math.Abs(x) <= 1+1e-9) { // also NaN
				return fmt.Errorf("display: %v is not a rotation", r)
			}
		}
	}
	hm := wp.homography(r, f.W, f.H)
	// A homography maps the viewport's edges to straight lines, so every
	// sample lies in the quadrilateral of its four corners: only that
	// quadrilateral's bounding box, clipped to the frame, is packed. Z is
	// affine in (i, j), so it is positive over the whole viewport if it is
	// at the corners.
	minU, minV, maxU, maxV := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for _, c := range [4][2]float64{{0, 0}, {float64(wp.w - 1), 0}, {0, float64(wp.h - 1)}, {float64(wp.w - 1), float64(wp.h - 1)}} {
		z := hm[2][0]*c[0] + hm[2][1]*c[1] + hm[2][2]
		if !(z > 0) {
			return fmt.Errorf("display: rotation turns viewport pixel %v past the frame's plane", c)
		}
		u, v := (hm[0][0]*c[0]+hm[0][1]*c[1]+hm[0][2])/z, (hm[1][0]*c[0]+hm[1][1]*c[1]+hm[1][2])/z
		minU, maxU, minV, maxV = min(minU, u), max(maxU, u), min(minV, v), max(maxV, v)
	}
	clip := func(x float64, size int) int { return int(max(0, min(float64(size-1), x))) }
	win := window{clip(math.Floor(minU), f.W), clip(math.Floor(minV), f.H), clip(math.Ceil(maxU), f.W), clip(math.Ceil(maxV), f.H)}
	buf := getTexels()
	defer putTexels(buf)
	tex, stride := pack(buf, f, win)
	// Samples clamp to the window, in stepped-coordinate units with the half
	// weight step that rounds a weight to nearest already added. Inside the
	// frame that moves only a sample the fixed-point steps carried a hair
	// past the quadrilateral; outside it, the window's side is the frame's.
	const half = 1 << (coordBits - weightBits - 1)
	winW, winH := win.x1-win.x0+1, win.y1-win.y0+1
	hiU, hiV := int64(winW-1)<<coordBits+half, int64(winH-1)<<coordBits+half
	// Coordinates are taken relative to the window's corner.
	for k := range 3 {
		hm[0][k] -= float64(win.x0) * hm[2][k]
		hm[1][k] -= float64(win.y0) * hm[2][k]
	}
	for j := 0; j < wp.h; j++ {
		row := out.Pix[j*wp.w*3:][:wp.w*3]
		jf := float64(j)
		bu, bv, bz := hm[0][1]*jf+hm[0][2], hm[1][1]*jf+hm[1][2], hm[2][1]*jf+hm[2][2]
		// anchor is the exact sample position of output column i and its
		// rate of change along the row, from one divide.
		anchor := func(i int) (u, v, du, dv float64) {
			fi := float64(i)
			iz := 1 / (hm[2][0]*fi + bz)
			u, v = (hm[0][0]*fi+bu)*iz, (hm[1][0]*fi+bv)*iz
			return u, v, (hm[0][0] - u*hm[2][0]) * iz, (hm[1][0] - v*hm[2][0]) * iz
		}
		u0, v0, du0, dv0 := anchor(0)
		for a := 0; ; {
			b := min(a+wp.span, wp.w-1)
			n := float64(max(b-a, 1)) // b = a only for a one-pixel row
			u1, v1, du1, dv1 := anchor(b)
			us, uIn := newSteps(u0, u1, du0, du1, n, winW)
			vs, vIn := newSteps(v0, v1, dv0, dv1, n, winH)
			// Both coordinates step in one register: u in the low 32 bits,
			// v above, as the exact integer u + v·2³².
			st := steps{us.c + half + (vs.c+half)<<32, us.d1 + vs.d1<<32, us.d2 + vs.d2<<32, us.d3 + vs.d3<<32}
			end := b
			if b == wp.w-1 {
				end = wp.w // the row's last span also draws its end
			}
			blendSpan(row[a*3:end*3], tex, stride, st, !(uIn && vIn), hiU, hiV)
			if end == wp.w {
				break
			}
			a, u0, v0, du0, dv0 = b, u1, v1, du1, dv1
		}
	}
	return nil
}

// steps is a coordinate along a span, a cubic in the output column stepped
// by forward differences: each pixel adds d1 to c, d2 to d1 and d3 to d2.
type steps struct{ c, d1, d2, d3 int64 }

// newSteps fits the cubic Hermite through a span's two anchors — positions
// c0, c1 and rates r0, r1, n columns apart — and sets up its forward
// differences in coordBits fixed point. inside reports that every stepped
// position stays within [0, size−1]: the cubic leaves the chord between its
// ends by at most 4/27·n times the sum of its end rates' departures from the
// chord's slope, and rounding the differences moves a position by less than
// 1/64 texel over a span.
func newSteps(c0, c1, r0, r1, n float64, size int) (s steps, inside bool) {
	c0, c1 = bound(c0, coordLimit), bound(c1, coordLimit)
	r0, r1 = bound(r0, rateLimit), bound(r1, rateLimit)
	inv := 1 / n
	m := (c1 - c0) * inv
	k2 := (3*m - 2*r0 - r1) * inv
	k3 := (r0 + r1 - 2*m) * inv * inv
	bulge := 4.0/27*n*(math.Abs(r0-m)+math.Abs(r1-m)) + 1.0/64
	inside = min(c0, c1)-bulge >= 0 && max(c0, c1)+bulge <= float64(size-1)
	return steps{
		c:  toFixed(c0),
		d1: toFixed(r0 + k2 + k3),
		d2: toFixed(2*k2 + 6*k3),
		d3: toFixed(6 * k3),
	}, inside
}

// bound clamps x to [−lim, lim]; NaN becomes lim.
func bound(x, lim float64) float64 {
	if x >= -lim && x <= lim {
		return x
	}
	if x < 0 {
		return -lim
	}
	return lim
}

// toFixed rounds x to coordBits fixed point.
func toFixed(x float64) int64 { return int64(math.Floor(x*(1<<coordBits) + 0.5)) }

// blendSpan writes len(o)/3 ≤ warpSpan+1 output pixels, each the bilinear
// blend of the four texels about its stepped sample position. A span that
// may leave the window is clamped: each position to [half, hi], the window's
// first and last texel. It runs in two passes, the positions and then the
// blends, so that neither loop needs more registers than there are.
func blendSpan(o []byte, tex [][2]uint64, stride int, st steps, clamp bool, hiU, hiV int64) {
	const (
		half = 1 << (coordBits - weightBits - 1)
		frac = coordBits - weightBits
	)
	var at [warpSpan + 1]uint64 // sample positions, u + v·2³², both ≥ 0
	pos := at[:len(o)/3]
	c, d1, d2, d3 := st.c, st.d1, st.d2, st.d3
	if clamp {
		for k := range pos {
			u := int64(int32(c))
			v := (c - u) >> 32
			pos[k] = uint64(max(half, min(hiU, u))) | uint64(max(half, min(hiV, v)))<<32
			c, d1, d2 = c+d1, d1+d2, d2+d3
		}
	} else {
		for k := range pos {
			pos[k] = uint64(c)
			c, d1, d2 = c+d1, d1+d2, d2+d3
		}
	}
	for _, p := range pos {
		u, v := p&(1<<32-1), p>>32
		i := int(v>>coordBits)*stride + int(u>>coordBits)
		top, bot := &tex[i], &tex[i+stride]
		fx, fy := (u>>frac)&(1<<weightBits-1), (v>>frac)&(1<<weightBits-1)
		// Four weights summing to exactly 1<<weightBits, so no lane
		// overflows: each channel's sum stays below 255·256 + 128.
		w11 := (fx*fy + 1<<(weightBits-1)) >> weightBits
		w10, w01 := fx-w11, fy-w11
		s := top[0]*(1<<weightBits-fx-fy+w11) + top[1]*w10 + bot[0]*w01 + bot[1]*w11 + laneRound
		o[2], o[1], o[0] = byte(s>>(weightBits+32)), byte(s>>(weightBits+16)), byte(s>>weightBits)
		o = o[3:]
	}
}
