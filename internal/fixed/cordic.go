package fixed

import (
	"math"
	"sync"
)

// maxCORDICIter bounds the CORDIC iteration count; beyond ~60 iterations the
// atan table entries underflow any representable format.
const maxCORDICIter = 60

// CORDICIterations returns the unrolled CORDIC stage count an RTL
// implementation of this format would instantiate: enough to drive residual
// rotation below one ulp. Used by the CORDIC itself and by op-level
// accelerator accounting.
func (f Format) CORDICIterations() int {
	return min(max(f.FracBits()+2, 4), maxCORDICIter)
}

// Core is the arithmetic of one Format on raw int64 values: the saturating
// word operations plus the CORDIC blocks, with everything the format fixes —
// saturation bounds, rounding term, stage count, the angle ROM, the CORDIC
// gain, π — derived once. In hardware these are wiring and ROMs synthesized
// per design; a per-pixel loop holds a Core and never looks at the Format
// again. A Core is immutable after Format.Core returns it.
type Core struct {
	word
	atan              [maxCORDICIter]int64 // angle ROM: atan(2^-i), first iters entries used
	iters             int
	gain              int64 // K = Π 1/√(1+2^-2i) over iters stages
	free              int64 // operands within ±free never saturate a vectoring stage
	pi, halfPi, twoPi int64
}

// cores memoizes Core per format; building one costs ~120 libm calls.
var cores sync.Map // Format -> *Core

// Core returns the format's arithmetic. Callers on a hot path keep the
// result (or a copy) rather than calling this per operation.
func (f Format) Core() *Core {
	if v, ok := cores.Load(f); ok {
		return v.(*Core)
	}
	c := &Core{word: f.word(), iters: f.CORDICIterations()}
	k := 1.0
	for i := 0; i < c.iters; i++ {
		c.atan[i] = f.FromFloat(math.Atan(math.Ldexp(1, -i))).Raw
		k *= 1 / math.Sqrt(1+math.Ldexp(1, -2*i))
	}
	c.gain = f.FromFloat(k).Raw
	c.free = c.vectorFree(k)
	c.pi = f.FromFloat(math.Pi).Raw
	c.halfPi = f.FromFloat(math.Pi / 2).Raw
	c.twoPi = f.FromFloat(2 * math.Pi).Raw
	v, _ := cores.LoadOrStore(f, c)
	return v.(*Core)
}

// The CORDIC blocks share one micro-rotation stage, written out in each loop
// below because the compiler will not inline it: stage i holds the angle-ROM
// entry a = atan(2^-i); direction d = 0 turns (x, y) clockwise (x += y>>i,
// y -= x>>i) and adds a to the angle accumulator z, d = -1 does the opposite.
// (v^d)-d is v or -v, so the three adder/subtractors need no branch on the
// data-dependent direction bit. Each output passes the stage's saturator,
// which almost never fires: one fused range test — v-min has a bit above
// span iff v is outside [min, max] — keeps the clamps off the loop-carried
// path. Atan2 drops even that test when its operands are within ±free,
// where no stage can saturate (vectorFree).

// SinCos computes sin(a) and cos(a) with CORDIC in rotation mode. The
// argument may be any representable angle in radians; it is first reduced
// into [-π, π] and then into [-π/2, π/2] with a sign flip.
func (c *Core) SinCos(a int64) (sin, cos int64) {
	negPi := c.Neg(c.pi)
	z := a
	for z > c.pi {
		z = c.Sub(z, c.twoPi)
	}
	for z < negPi {
		z = c.Add(z, c.twoPi)
	}
	// Reduce into [-π/2, π/2]; remember the quadrant flip.
	flip := false
	if z > c.halfPi {
		z, flip = c.Sub(c.pi, z), true
	} else if z < c.Neg(c.halfPi) {
		z, flip = c.Sub(negPi, z), true
	}
	// Turn the unit vector, pre-shrunk by the CORDIC gain, through z.
	x, y := c.gain, int64(0)
	lo, span := c.min, c.span
	for i, a := range c.atan[:c.iters] {
		d := ^(z >> 63) // drive z to zero: counter-clockwise while z ≥ 0
		dx, dy := x>>uint(i), y>>uint(i)
		x, y, z = x-d+(dy^d), y+d-(dx^d), z-d+(a^d)
		if uint64(x-lo)|uint64(y-lo)|uint64(z-lo) > span {
			x, y, z = c.Sat(x), c.Sat(y), c.Sat(z)
		}
	}
	if flip {
		x = c.Neg(x)
	}
	return y, x
}

// Atan2 computes atan2(y, x) with CORDIC in vectoring mode, returning the
// angle in (-π, π]. It is the core of the Cartesian-to-Spherical (C2S) block
// of the mapping engine (§6.2).
func (c *Core) Atan2(y, x int64) int64 {
	if x == 0 && y == 0 {
		return 0
	}
	// Vectoring converges only in the right half-plane, so a left-half-plane
	// vector is first reflected through the origin, which turns it by
	// exactly ±π: a second-quadrant vector (x<0, y≥0) lands in the fourth
	// quadrant at angle θ-π, so π is added back; a third-quadrant vector
	// lands in the first at θ+π, so π is taken off.
	var offset int64
	if x < 0 {
		offset = c.pi
		if y < 0 {
			offset = c.Neg(c.pi)
		}
		x, y = c.Neg(x), c.Neg(y)
	}
	var z int64
	if x <= c.free && uint64(y+c.free) <= uint64(2*c.free) { // |x|, |y| ≤ free
		for i, a := range c.atan[:c.iters] {
			d := y >> 63
			dx, dy := x>>uint(i), y>>uint(i)
			x, y, z = x-d+(dy^d), y+d-(dx^d), z-d+(a^d)
		}
		return c.Add(z, offset)
	}
	lo, span := c.min, c.span
	for i, a := range c.atan[:c.iters] {
		d := y >> 63 // drive y to zero: clockwise while y ≥ 0
		dx, dy := x>>uint(i), y>>uint(i)
		x, y, z = x-d+(dy^d), y+d-(dx^d), z-d+(a^d)
		if uint64(x-lo)|uint64(y-lo)|uint64(z-lo) > span {
			x, y, z = c.Sat(x), c.Sat(y), c.Sat(z)
		}
	}
	return c.Add(z, offset)
}

// vectorFree returns the operand bound below which no vectoring stage
// saturates, so Atan2 may skip the per-stage range test: |x|, |y| ≤ free
// keeps every stage's x, y and z inside [min, max]. It is 0 where no such
// bound exists. k is the CORDIC gain, Π 1/√(1+2^-2i) over the stages.
//
//   - z moves by one angle-ROM entry per stage, so it stays within the sum
//     of the ROM, which must fit below max (≈1.74 rad: it does from two
//     integer bits up, never at one). The sum is checked entry by entry, so
//     it cannot overflow int64 on its way.
//   - Stage i turns (x, y) exactly by a factor √(1+2^-2i), and its two
//     truncating shifts add an error under 1 ulp to each component, under √2
//     to the vector. Starting from |(x, y)| ≤ √2·M, every stage's vector, and
//     so each component, stays below (√2·M + √2·iters)/k; that is at most
//     max when M ≤ max·k/√2 − iters. The float product is taken with a 10⁻⁹
//     margin, far above its rounding error.
func (c *Core) vectorFree(k float64) int64 {
	var sum int64
	for _, a := range c.atan[:c.iters] {
		if a > c.max-sum { // every entry is ≥ 0
			return 0
		}
		sum += a
	}
	free := math.Floor(float64(c.max)*k/math.Sqrt2*(1-1e-9)) - float64(c.iters)
	if free < 1 {
		return 0
	}
	return int64(free)
}
