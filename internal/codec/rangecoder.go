package codec

import "errors"

// errBitstream reports a truncated or corrupt bitstream.
var errBitstream = errors.New("codec: truncated or corrupt bitstream")

// The frame-body entropy coder: an LZMA-style binary range coder with a
// 32-bit range, byte-wise renormalisation with carry propagation, adaptive
// per-context probabilities and equiprobable bypass bins. Everything is
// integer arithmetic, so every platform codes the same bytes.
//
// A body is the bytes of the code value, most significant first, without
// the leading byte an LZMA stream carries (it is always zero here: the
// code value lies below the initial range). The encoder ends a body with a
// two-byte flush that rounds the value up to a multiple of 2^24, so the
// decoder, which reads four bytes ahead, runs exactly rangeSlack bytes past
// the end and reads them as zeros. A body that makes it read further is
// truncated, one it leaves bytes of is padded: both are errBitstream.

const (
	probBits  = 12
	probOne   = 1 << probBits
	probHalf  = probOne / 2
	probFloor = 32 // either bin keeps at least probFloor/probOne of the range
	topValue  = 1 << 24
	// rangeSlack is how many zero bytes past the end of a body the
	// decoder reads: four bytes of lookahead less the flush's one.
	rangeSlack = 3
	// minBinCost is the fewest bits, in units of 2^-16 bit, that one
	// context-coded bin removes from the range: −log2 of the largest share
	// of it a bin may keep, (1 − probFloor/probOne) widened by the
	// truncation of range>>probBits at the smallest range, rounded down.
	// A bypass bin removes at least one bit. TestMinBinCost derives it.
	minBinCost = 741
)

// A context's adaptation rate follows how many bins it has coded: a new
// context moves fast, roughly as a bin count would — shift 1 for its first
// bin, 2 for the next three, 3 for the six after, 4 up to its 21st — and
// settles at shift 5. Its state byte is that count (saturating at 21)
// above the shift it implies, so the shift is at hand without a lookup and
// the next state is one.
const stateShift = 3 // bits of the shift in a state byte

// nextState maps a context's state to the state after one more bin.
var nextState = func() (t [256]uint8) {
	shift := func(n int) int {
		switch {
		case n < 1:
			return 1
		case n < 4:
			return 2
		case n < 10:
			return 3
		case n < 21:
			return 4
		}
		return 5
	}
	for st := range t {
		n := min(st>>stateShift+1, 21)
		t[st] = uint8(n<<stateShift | shift(n))
	}
	return t
}()

// binContext is one adaptive binary model: the probability that the next
// bin is 0, in units of 1/probOne and held within [probFloor, probOne −
// probFloor], and its adaptation state.
type binContext struct {
	p  uint16
	st uint8
}

// newBinContext is a context with no history: both bins equally likely,
// adapting at shift 1.
var newBinContext = binContext{p: probHalf, st: 1}

// adapt0 and adapt1 move the model toward the bin it just coded.
func (c *binContext) adapt0() {
	c.p = min(c.p+(probOne-c.p)>>(c.st&(1<<stateShift-1)), probOne-probFloor)
	c.st = nextState[c.st]
}

func (c *binContext) adapt1() {
	c.p = max(c.p-c.p>>(c.st&(1<<stateShift-1)), probFloor)
	c.st = nextState[c.st]
}

// rangeEncoder writes one frame body. The zero value is not ready; use
// reset.
type rangeEncoder struct {
	buf   []byte
	low   uint64 // 33 bits: bit 32 is a carry into the bytes held back
	rng   uint32
	cache byte // the last byte shifted out of low, held back for a carry
	held  int  // cache plus the 0xFF bytes behind it that a carry would flip
}

// reset starts a new body in buf's storage. The byte held back at the start
// is the leading zero byte the body does without; bytes drops it.
func (e *rangeEncoder) reset() {
	*e = rangeEncoder{buf: e.buf[:0], rng: 0xFFFFFFFF, held: 1}
}

// shiftLow moves the top byte of low out: held back while it is 0xFF and a
// carry could still reach it, written with the bytes before it otherwise.
func (e *rangeEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || e.low >= 1<<32 {
		carry := byte(e.low >> 32)
		b := e.cache
		for ; e.held > 0; e.held-- {
			e.buf = append(e.buf, b+carry)
			b = 0xFF
		}
		e.cache = byte(e.low >> 24)
	}
	e.held++
	e.low = (e.low & 0x00FFFFFF) << 8
}

// encode codes bin (0 or 1) under c and adapts c.
func (e *rangeEncoder) encode(c *binContext, bin uint32) {
	bound := (e.rng >> probBits) * uint32(c.p)
	if bin == 0 {
		e.rng = bound
		c.adapt0()
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		c.adapt1()
	}
	if e.rng < topValue {
		e.rng <<= 8
		e.shiftLow()
	}
}

// bypass codes the low n bits of v, most significant first, as
// equiprobable bins.
func (e *rangeEncoder) bypass(v uint32, n int) {
	for n--; n >= 0; n-- {
		e.rng >>= 1
		if v>>uint(n)&1 != 0 {
			e.low += uint64(e.rng)
		}
		if e.rng < topValue {
			e.rng <<= 8
			e.shiftLow()
		}
	}
}

// bytes ends the body and returns it. The code value is rounded up to a
// multiple of 2^24, which stays inside the final range because the range
// is at least 2^24, so two shifts write every nonzero byte of it.
func (e *rangeEncoder) bytes() []byte {
	e.low = (e.low + topValue - 1) &^ (topValue - 1)
	e.shiftLow()
	e.shiftLow()
	return e.buf[1:]
}

// rangeDecoder reads one frame body.
type rangeDecoder struct {
	buf  []byte
	pos  int // next byte of buf; past len(buf) it counts the zeros read
	rng  uint32
	code uint32 // below rng in every stream the encoder writes
	bad  bool   // read a code no encoder writes: a first word of 0xFFFFFFFF, a bypass bin past its interval, an exp-Golomb prefix past maxSuffixBits
}

// reset starts decoding body.
func (d *rangeDecoder) reset(body []byte) {
	*d = rangeDecoder{buf: body, rng: 0xFFFFFFFF}
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | d.next()
	}
	d.bad = d.code == 0xFFFFFFFF
}

func (d *rangeDecoder) next() uint32 {
	p := d.pos
	d.pos++
	if p < len(d.buf) {
		return uint32(d.buf[p])
	}
	return 0
}

// decode decodes one bin under c and adapts c.
func (d *rangeDecoder) decode(c *binContext) uint32 {
	bin, rng, code := decodeBin(d.rng, d.code, c)
	d.rng, d.code = d.renormalise(rng, code)
	return bin
}

// decodeBin is decode's arithmetic on a range and code held by the caller:
// it returns the bin and the range and code after it, before
// renormalisation. Small enough to inline, it lets a hot loop keep the
// coder's state in registers.
func decodeBin(rng, code uint32, c *binContext) (bin, rng1, code1 uint32) {
	bound := (rng >> probBits) * uint32(c.p)
	if code < bound {
		c.adapt0()
		return 0, bound, code
	}
	c.adapt1()
	return 1, rng - bound, code - bound
}

// renormalise brings a range below 2^24 back above it, reading a byte.
func (d *rangeDecoder) renormalise(rng, code uint32) (uint32, uint32) {
	if rng < topValue {
		return rng << 8, code<<8 | d.next()
	}
	return rng, code
}

// bypass decodes n equiprobable bins, most significant first.
func (d *rangeDecoder) bypass(n int) uint32 {
	var v uint32
	rng, code := d.rng, d.code
	for ; n > 0; n-- {
		var bin uint32
		bin, rng, code = d.bypassBin(rng, code)
		v = v<<1 | bin
	}
	d.rng, d.code = rng, code
	return v
}

// bypassBin is one bypass bin on a range and code held by the caller,
// renormalised. The encoder's 1-interval is [rng, 2·rng): a code past it
// would break code < rng, and marks the body bad.
func (d *rangeDecoder) bypassBin(rng, code uint32) (bin, rng1, code1 uint32) {
	rng >>= 1
	if code >= rng {
		code -= rng
		bin = 1
		d.bad = d.bad || code >= rng
	}
	rng, code = d.renormalise(rng, code)
	return bin, rng, code
}

// overrun reports whether the decoder has read past the body's slack or
// decoded a code the encoder cannot write.
func (d *rangeDecoder) overrun() bool { return d.bad || d.pos > len(d.buf)+rangeSlack }

// finish reports whether the body ended exactly where its bins did.
func (d *rangeDecoder) finish() error {
	if d.bad || d.pos != len(d.buf)+rangeSlack {
		return errBitstream
	}
	return nil
}
