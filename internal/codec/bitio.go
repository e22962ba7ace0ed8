package codec

import (
	"errors"
	"math/bits"
)

// errBitstream reports a truncated or corrupt bitstream.
var errBitstream = errors.New("codec: truncated or corrupt bitstream")

// bitWriter packs bits MSB-first into a byte slice through a 64-bit
// accumulator: whole bytes leave it once per write, not once per bit.
type bitWriter struct {
	buf []byte
	acc uint64 // pending bits in the low n positions; higher bits are stale
	n   uint   // pending bit count, < 8 between writes
}

// writeBits writes the low n bits of v, MSB first; n must be ≤ 56.
func (w *bitWriter) writeBits(v uint64, n uint) {
	w.acc = w.acc<<n | v&(1<<n-1)
	w.n += n
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.acc>>w.n))
	}
}

// writeUE writes v with unsigned exponential-Golomb coding: x = v+1 in
// bits.Len(x) bits, preceded by one zero per bit after the first.
func (w *bitWriter) writeUE(v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x))
	if 2*n-1 > 56 {
		w.writeBits(0, n-1)
		w.writeBits(x, n)
		return
	}
	w.writeBits(x, 2*n-1)
}

// writeSE writes v with signed exponential-Golomb coding.
func (w *bitWriter) writeSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(2*v - 1)
	} else {
		u = uint32(-2 * v)
	}
	w.writeUE(u)
}

// bytes flushes the partial byte (zero-padded) and returns the buffer.
func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.n)))
		w.n = 0
	}
	return w.buf
}

// bitReader reads bits MSB-first from a byte slice through a 64-bit
// accumulator refilled a byte at a time.
type bitReader struct {
	buf []byte
	pos int    // next byte of buf to load
	acc uint64 // unread bits, left-aligned; bits below the top n are zero
	n   uint   // unread bits in acc
}

func newBitReader(buf []byte) *bitReader { return &bitReader{buf: buf} }

func (r *bitReader) fill() {
	for r.n <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.n)
		r.pos++
		r.n += 8
	}
}

// bitsLeft returns the number of unread bits.
func (r *bitReader) bitsLeft() int { return int(r.n) + 8*(len(r.buf)-r.pos) }

// readBits reads n ≤ 56 bits.
func (r *bitReader) readBits(n uint) (uint64, error) {
	if r.n < n {
		r.fill()
		if r.n < n {
			return 0, errBitstream
		}
	}
	v := r.acc >> (64 - n) // a shift by 64 (n = 0) yields 0
	r.acc <<= n
	r.n -= n
	return v, nil
}

// readUE reads an unsigned exponential-Golomb value.
func (r *bitReader) readUE() (uint32, error) {
	if r.n < 33 {
		r.fill()
	}
	// With no set bit among the unread bits, the prefix either runs off
	// the payload or is longer than any 32-bit value's.
	zeros := uint(bits.LeadingZeros64(r.acc))
	if zeros >= r.n || zeros > 32 {
		return 0, errBitstream
	}
	r.acc <<= zeros + 1
	r.n -= zeros + 1
	rest, err := r.readBits(zeros)
	if err != nil {
		return 0, err
	}
	return uint32((uint64(1)<<zeros | rest) - 1), nil
}

// readSE reads a signed exponential-Golomb value.
func (r *bitReader) readSE() (int32, error) {
	u, err := r.readUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2) + 1, nil
	}
	return -int32(u / 2), nil
}
