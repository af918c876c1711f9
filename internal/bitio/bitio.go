// Package bitio implements bit-granular encoding and decoding of protocol
// messages, together with exact size accounting.
//
// The CONGEST model bounds every message to O(log N) bits, so the simulator
// must know the exact bit length of everything a protocol puts on the wire.
// All protocol codecs in this repository are written against bitio so that
// the dynamic-network engine can enforce the per-message bit budget and the
// two-party reduction harness can charge Alice and Bob the exact number of
// bits they exchange.
//
// The codec is byte-chunked: WriteUint and ReadUint move up to eight bits
// per step (the bits that share one byte), and the uvarint codec handles
// each continuation-plus-group field as one 5-bit value. The bit format is
// unchanged from a bit-at-a-time codec — the same bits in the same order,
// zero padding to a whole byte, len(Bytes()) == ceil(Len()/8) — and
// FuzzBitioEquivalence pins both directions against such a reference.
package bitio

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrOverflow is returned when a read runs past the end of the bit stream.
var ErrOverflow = errors.New("bitio: read past end of stream")

// ErrRange is returned when a decoded value does not fit its declared width.
var ErrRange = errors.New("bitio: value out of range")

// errInvalidWidth is ReadUint's answer to a width outside [0, 64]. It is a
// preallocated value so the read path stays allocation-free.
var errInvalidWidth = fmt.Errorf("bitio: invalid width (want 0..64): %w", ErrRange)

// Writer accumulates bits most-significant-bit first into a byte slice.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the encoded bytes. The final byte is zero padded.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, retaining the underlying buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

// WriteUint appends v using exactly width bits, most significant bit first.
// It panics if v does not fit in width bits: message layouts are fixed by the
// protocol designer, so an overflow is a programming error, not input error.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		//lint:allow panicfree message layouts are fixed by the protocol designer; a bad width is a programming error
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v >= 1<<uint(width) {
		//lint:allow panicfree an overflowing field is a protocol-design bug, not runtime input
		panic(fmt.Sprintf("bitio: value %d does not fit in %d bits", v, width))
	}
	for width > 0 {
		off := w.nbit % 8
		if off == 0 {
			w.buf = append(w.buf, 0)
		}
		// Fill the current byte from bit off: n bits, the most significant
		// of v's remaining width first.
		n := 8 - off
		if n > width {
			n = width
		}
		width -= n
		chunk := v >> uint(width) & (1<<uint(n) - 1)
		w.buf[w.nbit/8] |= byte(chunk << uint(8-off-n))
		w.nbit += n
	}
}

// WriteBool appends a boolean as one bit.
func (w *Writer) WriteBool(b bool) { w.WriteBit(b) }

// WriteUvarint appends v in a bit-granular variable-length encoding:
// groups of 4 value bits, each preceded by a continuation bit.
// Small values (the common case for ids and counters) stay small while the
// encoding remains self-delimiting, which the codecs rely on.
func (w *Writer) WriteUvarint(v uint64) {
	for {
		field := v & 0xF
		v >>= 4
		if v != 0 {
			field |= 0x10 // continuation
		}
		w.WriteUint(field, 5)
		if v == 0 {
			return
		}
	}
}

// UvarintLen returns the number of bits WriteUvarint uses for v.
func UvarintLen(v uint64) int {
	groups := 1
	for v >>= 4; v != 0; v >>= 4 {
		groups++
	}
	return groups * 5
}

// WidthFor returns the minimum number of bits needed to represent any value
// in [0, n-1]; WidthFor(0) and WidthFor(1) return 1 so that a field is never
// zero-width.
func WidthFor(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len64(uint64(n - 1))
}

// Reader consumes bits written by Writer.
type Reader struct {
	buf  []byte
	pos  int // next bit to read
	nbit int // total valid bits
}

// NewReader returns a Reader over the first nbit bits of buf.
func NewReader(buf []byte, nbit int) *Reader {
	return &Reader{buf: buf, nbit: nbit}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrOverflow
	}
	b := r.buf[r.pos/8]>>(7-uint(r.pos%8))&1 == 1
	r.pos++
	return b, nil
}

// ReadUint consumes width bits and returns them as an unsigned integer.
// A read past the end consumes the remaining bits and returns ErrOverflow.
//
//lint:hotpath
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, errInvalidWidth
	}
	if width == 0 {
		return 0, nil
	}
	if width > r.nbit-r.pos {
		if r.pos < r.nbit {
			r.pos = r.nbit
		}
		return 0, ErrOverflow
	}
	var v uint64
	for width > 0 {
		// Take the n bits of width that share the byte holding pos.
		off := r.pos % 8
		n := 8 - off
		if n > width {
			n = width
		}
		chunk := uint64(r.buf[r.pos/8]>>uint(8-off-n)) & (1<<uint(n) - 1)
		v = v<<uint(n) | chunk
		r.pos += n
		width -= n
	}
	return v, nil
}

// ReadBool consumes one bit as a boolean.
func (r *Reader) ReadBool() (bool, error) { return r.ReadBit() }

// ReadUvarint consumes a value written by WriteUvarint.
//
//lint:hotpath
func (r *Reader) ReadUvarint() (uint64, error) {
	var v uint64
	shift := 0
	for {
		field, err := r.ReadUint(5) // continuation bit, then 4 value bits
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, ErrRange
		}
		v |= field & 0xF << uint(shift)
		shift += 4
		if field&0x10 == 0 {
			return v, nil
		}
	}
}
