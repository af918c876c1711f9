package bitio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// refWriter and refReader are the bit-at-a-time codec the byte-chunked one
// must match: one bit per step, most significant bit first, the uvarint as a
// continuation bit followed by a 4-bit group.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) writeBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

func (w *refWriter) writeUint(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.writeBit(v>>uint(i)&1 == 1)
	}
}

func (w *refWriter) writeUvarint(v uint64) {
	for {
		group := v & 0xF
		v >>= 4
		w.writeBit(v != 0)
		w.writeUint(group, 4)
		if v == 0 {
			return
		}
	}
}

type refReader struct {
	buf       []byte
	pos, nbit int
}

func (r *refReader) readBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrOverflow
	}
	b := r.buf[r.pos/8]>>(7-uint(r.pos%8))&1 == 1
	r.pos++
	return b, nil
}

func (r *refReader) readUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, ErrRange
	}
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

func (r *refReader) readUvarint() (uint64, error) {
	var v uint64
	shift := 0
	for {
		cont, err := r.readBit()
		if err != nil {
			return 0, err
		}
		group, err := r.readUint(4)
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, ErrRange
		}
		v |= group << uint(shift)
		shift += 4
		if !cont {
			return v, nil
		}
	}
}

// opStream hands out fuzz bytes; an exhausted stream yields zeros.
type opStream struct{ b []byte }

func (s *opStream) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *opStream) uint64() uint64 {
	var tmp [8]byte
	n := copy(tmp[:], s.b)
	s.b = s.b[n:]
	return binary.LittleEndian.Uint64(tmp[:])
}

// sameErr reports whether two read errors agree: both nil, or both the
// same sentinel under errors.Is.
func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	for _, sentinel := range []error{ErrOverflow, ErrRange} {
		if errors.Is(want, sentinel) {
			return errors.Is(got, sentinel)
		}
	}
	return false
}

// FuzzBitioEquivalence pins the byte-chunked codec to the bit-at-a-time
// reference. ops drives a random write sequence (WriteUint at any width
// 0..64, WriteUvarint, WriteBit, Reset, Next) whose bytes and Len must
// match after every step, and no payload handed out before a Next may
// change afterwards; then a random read sequence (ReadBit, ReadUint at
// widths -1..65, ReadUvarint) over (buf, nbit ≤ 8·len(buf)) whose values,
// errors and Remaining must match after every read, truncated streams
// included.
func FuzzBitioEquivalence(f *testing.F) {
	f.Add([]byte{0, 64, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1, 7, 2, 3}, []byte{0xA5, 0x5A, 0xFF}, uint(20))
	f.Add([]byte{1, 0x34, 0x12, 0, 0, 0, 0, 0, 0, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0x80}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint(85))
	f.Add([]byte{2, 5, 0, 3, 2, 1, 9}, []byte{0x80}, uint(3))
	f.Add([]byte{}, []byte{}, uint(0))
	for off := 0; off < 8; off++ {
		f.Add(straddleWriteOps(off), []byte{}, uint(0))
		buf := pattern(96)
		f.Add(straddleReadOps(off), buf, uint(8*len(buf)-3))
	}
	for _, size := range []int{1, 3, 7} {
		ops := append(opReadUint(3), 1)
		ops = append(ops, opReadUint(8*size)...)
		f.Add(ops, pattern(size), uint(8*size-1))
	}
	f.Add(dirtyResetOps(), pattern(9), uint(70))
	f.Add(nextOps(), []byte{}, uint(0))
	f.Fuzz(func(t *testing.T, ops, buf []byte, nbit uint) {
		var w Writer
		var ref refWriter
		var sent, snapshots [][]byte
		s := opStream{ops}
		for step := 0; len(s.b) > 0; step++ {
			switch op := s.byte(); op % 4 {
			case 0:
				width := int(s.byte() % 65)
				v := s.uint64()
				if width < 64 {
					v &= 1<<uint(width) - 1
				}
				w.WriteUint(v, width)
				ref.writeUint(v, width)
			case 1:
				v := s.uint64() >> (s.byte() % 64)
				w.WriteUvarint(v)
				ref.writeUvarint(v)
			case 2:
				w.WriteBit(op&0x80 != 0)
				ref.writeBit(op&0x80 != 0)
			case 3:
				if op&0x80 != 0 {
					b := w.Bytes()
					if cap(b) != len(b) {
						t.Fatalf("write step %d: cap(Bytes()) = %d, len %d", step, cap(b), len(b))
					}
					sent, snapshots = append(sent, b), append(snapshots, bytes.Clone(b))
					w.Next()
				} else {
					w.Reset()
				}
				ref.buf, ref.nbit = nil, 0
			}
			if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
				t.Fatalf("write step %d: got %x (%d bits), want %x (%d bits)", step, w.Bytes(), w.Len(), ref.buf, ref.nbit)
			}
		}
		for i := range sent {
			if !bytes.Equal(sent[i], snapshots[i]) {
				t.Fatalf("payload %d changed after Next: %x, was %x", i, sent[i], snapshots[i])
			}
		}

		nbit %= uint(8*len(buf)) + 1
		r := NewReader(buf, int(nbit))
		rr := refReader{buf: buf, nbit: int(nbit)}
		s = opStream{ops}
		for step := 0; len(s.b) > 0; step++ {
			var got, want uint64
			var gerr, werr error
			switch op := s.byte(); op % 3 {
			case 0:
				width := int(s.byte()%67) - 1
				got, gerr = r.ReadUint(width)
				want, werr = rr.readUint(width)
			case 1:
				got, gerr = r.ReadUvarint()
				want, werr = rr.readUvarint()
			case 2:
				gb, ge := r.ReadBit()
				wb, we := rr.readBit()
				got, gerr, want, werr = boolU(gb), ge, boolU(wb), we
			}
			if got != want || !sameErr(gerr, werr) || r.Remaining() != rr.nbit-rr.pos {
				t.Fatalf("read step %d: got (%d, %v, remaining %d), want (%d, %v, remaining %d)",
					step, got, gerr, r.Remaining(), want, werr, rr.nbit-rr.pos)
			}
		}
	})
}

func boolU(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// straddleWidths are the field widths the edge tests and fuzz seeds cover
// at every bit offset: 0, 1, and 57–64, the widths at which a field that
// starts at a nonzero offset straddles the 64-bit window.
var straddleWidths = []int{0, 1, 57, 58, 59, 60, 61, 62, 63, 64}

// pattern returns n deterministic bytes with every bit value present.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*37 + 0xA5)
	}
	return b
}

// fieldValue returns a width-bit value with both end bits set, so a
// misplaced or truncated field shows.
func fieldValue(width int) uint64 {
	if width == 0 {
		return 0
	}
	return (0xA5A5A5A5A5A5A5A5 | 1<<uint(width-1) | 1) & (^uint64(0) >> uint(64-width))
}

// Op-stream encoders for FuzzBitioEquivalence seeds. The same stream is
// read once as write ops and once as read ops, so a seed aims at one
// phase and is arbitrary input to the other.
func opWriteUint(v uint64, width int) []byte {
	return binary.LittleEndian.AppendUint64([]byte{0, byte(width)}, v)
}

func opReadUint(width int) []byte { return []byte{0, byte(width + 1)} }

const (
	opReset = 3
	opNext  = 0x80 | opReset
)

// straddleWriteOps writes, for each straddle width, an off-bit prefix,
// the field and a 3-bit trailer, resetting between widths.
func straddleWriteOps(off int) []byte {
	var ops []byte
	for _, width := range straddleWidths {
		ops = append(ops, opWriteUint(fieldValue(off), off)...)
		ops = append(ops, opWriteUint(fieldValue(width), width)...)
		ops = append(ops, opWriteUint(5, 3)...)
		ops = append(ops, opReset)
	}
	return ops
}

// straddleReadOps reads an off-bit prefix, then each straddle width
// followed by a filler read that brings the position back to offset off.
func straddleReadOps(off int) []byte {
	ops := opReadUint(off)
	for _, width := range straddleWidths {
		ops = append(ops, opReadUint(width)...)
		ops = append(ops, opReadUint((8-width%8)%8)...)
	}
	return ops
}

// dirtyResetOps fills three words with ones, resets, then writes fields
// and a uvarint that land on the stale bytes.
func dirtyResetOps() []byte {
	var ops []byte
	for i := 0; i < 3; i++ {
		ops = append(ops, opWriteUint(^uint64(0), 64)...)
	}
	ops = append(ops, opReset)
	ops = append(ops, opWriteUint(1, 1)...)
	ops = append(ops, opWriteUint(fieldValue(60), 60)...)
	ops = append(ops, binary.LittleEndian.AppendUint64([]byte{1}, 0x0123456789ABCDEF)...)
	ops = append(ops, 0) // the uvarint's shift
	return append(ops, opWriteUint(0, 7)...)
}

// nextOps writes messages of growing width separated by Next, enough to
// cross chunk boundaries, including one message longer than a chunk.
func nextOps() []byte {
	var ops []byte
	for i := 0; i < 3*chunkSize/16; i++ {
		width := 1 + i%64
		ops = append(ops, opWriteUint(fieldValue(width), width)...)
		ops = append(ops, opWriteUint(fieldValue(64), 64)...)
		ops = append(ops, opNext)
	}
	for i := 0; i < 2*chunkSize/8; i++ {
		ops = append(ops, opWriteUint(fieldValue(64-i%8), 64-i%8)...)
	}
	ops = append(ops, opNext)
	return append(ops, opWriteUint(5, 3)...)
}
