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
// The codec is word-at-a-time: WriteUint and ReadUint move a whole field
// through one 64-bit big-endian window starting at the byte that holds the
// current bit, plus at most one spill byte when the field straddles the
// window's end, and the uvarint codec packs or decodes its 5-bit
// continuation-plus-group fields inside such windows. The bit format is
// unchanged from a bit-at-a-time codec — the same bits in the same order,
// zero padding to a whole byte, len(Bytes()) == ceil(Len()/8) — and
// FuzzBitioEquivalence pins both directions against such a reference.
package bitio

import (
	"encoding/binary"
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
//
// A Writer can encode a sequence of messages: Next starts a new one after
// the bytes of the last, so a machine that owns one Writer hands out
// payloads that share a few backing arrays instead of allocating one per
// message, and never writes to a payload again once it is handed out.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

const (
	// chunkSize is the length of each fresh backing array Next moves to.
	chunkSize = 192
	// nextRoom is the least room Next wants after the previous message:
	// a CONGEST payload plus the 8-byte window WriteUint stores through.
	nextRoom = 32
)

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the encoded bytes. The final byte is zero padded. The
// slice's capacity is its length, so appending to it never reaches the
// writer's later messages.
func (w *Writer) Bytes() []byte { return w.buf[:len(w.buf):len(w.buf)] }

// Reset clears the writer for reuse, retaining the underlying buffer. Later
// writes overwrite the bytes earlier Bytes calls handed out, so a machine
// that encodes one dynet.Message payload after another calls Next instead:
// payloads must stay unchanged after the round that sent them.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Next clears the writer for a new message that starts right after the
// bytes already written, in the same backing array, or in a fresh chunk
// when fewer than nextRoom bytes of it remain. No byte an earlier Bytes
// call handed out is written again.
func (w *Writer) Next() {
	rest := w.buf[len(w.buf):cap(w.buf)]
	if len(rest) < nextRoom {
		rest = make([]byte, chunkSize)
	}
	w.buf = rest[:0]
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
	if width == 0 {
		return
	}
	i, off := w.nbit>>3, uint(w.nbit&7)
	w.nbit += width
	if n := (w.nbit + 7) >> 3; n <= cap(w.buf) {
		// Bytes past the old length may hold data from before a Reset;
		// the window below overwrites every one of them that joins Bytes.
		w.buf = w.buf[:n]
	} else {
		w.buf = append(w.buf, make([]byte, n-len(w.buf))...)
	}
	// The field occupies window bits [off, end), counted from the most
	// significant bit of the 64-bit window at byte i; bits past end are
	// zero and the off bits before it are kept from byte i.
	end := off + uint(width)
	var word uint64
	if end <= 64 {
		word = v << (64 - end)
	} else {
		word = v >> (end - 64)
		w.buf[i+8] = byte(v << (72 - end))
	}
	if cap(w.buf)-i >= 8 {
		win := w.buf[i : i+8 : i+8]
		binary.BigEndian.PutUint64(win, binary.BigEndian.Uint64(win)&^(^uint64(0)>>off)|word)
		return
	}
	// Fewer than 8 bytes of capacity remain, so the field ends within
	// them: go through a stack copy of the tail.
	var tmp [8]byte
	tail := w.buf[i:]
	copy(tmp[:], tail)
	binary.BigEndian.PutUint64(tmp[:], binary.BigEndian.Uint64(tmp[:])&^(^uint64(0)>>off)|word)
	copy(tail, tmp[:])
}

// WriteBool appends a boolean as one bit.
func (w *Writer) WriteBool(b bool) { w.WriteBit(b) }

// WriteUvarint appends v in a bit-granular variable-length encoding:
// groups of 4 value bits, each preceded by a continuation bit.
// Small values (the common case for ids and counters) stay small while the
// encoding remains self-delimiting, which the codecs rely on.
func (w *Writer) WriteUvarint(v uint64) {
	// Pack up to 12 five-bit fields (60 bits) per WriteUint.
	var code uint64
	nb := 0
	for {
		field := v & 0xF
		v >>= 4
		if v != 0 {
			field |= 0x10 // continuation
		}
		code = code<<5 | field
		nb += 5
		if v == 0 {
			w.WriteUint(code, nb)
			return
		}
		if nb == 60 {
			w.WriteUint(code, nb)
			code, nb = 0, 0
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

// window returns the stream's bits from pos on, most significant first,
// in a word read from the 8 bytes at byte pos/8 (zero filled past the end
// of buf) and shifted left by pos%8, so only its first 64 - pos%8 bits
// are stream bits.
func (r *Reader) window() uint64 {
	i := r.pos >> 3
	if len(r.buf)-i >= 8 {
		return binary.BigEndian.Uint64(r.buf[i:]) << uint(r.pos&7)
	}
	// A payload shorter than a window: assemble its bytes one by one.
	var word uint64
	tail := r.buf[i:]
	for _, b := range tail {
		word = word<<8 | uint64(b)
	}
	return word << uint(8*(8-len(tail))+r.pos&7)
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
	v := r.window() >> uint(64-width)
	if end := r.pos&7 + width; end > 64 {
		// The field's last end-64 bits lie in the byte after the window.
		v |= uint64(r.buf[r.pos>>3+8]) >> uint(72-end)
	}
	r.pos += width
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
		// Decode the 5-bit fields (continuation bit, then 4 value bits)
		// that lie wholly inside both the window and the stream.
		k := min(r.nbit-r.pos, 57) / 5
		if k == 0 {
			if r.pos < r.nbit {
				r.pos = r.nbit
			}
			return 0, ErrOverflow
		}
		word := r.window()
		for ; k > 0; k-- {
			field := word >> 59
			word <<= 5
			r.pos += 5
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
}
