package bitio

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestWriteReadBitRoundTrip(t *testing.T) {
	var w Writer
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit[%d]: %v", i, err)
		}
		if got != want {
			t.Errorf("bit %d = %v, want %v", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err != ErrOverflow {
		t.Errorf("read past end: err = %v, want ErrOverflow", err)
	}
}

func TestWriteUintWidths(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
	}{
		{0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9},
		{math.MaxUint32, 32}, {math.MaxUint64, 64}, {0, 64},
	}
	var w Writer
	for _, c := range cases {
		w.WriteUint(c.v, c.width)
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, c := range cases {
		got, err := r.ReadUint(c.width)
		if err != nil {
			t.Fatalf("ReadUint(%d): %v", c.width, err)
		}
		if got != c.v {
			t.Errorf("ReadUint(%d) = %d, want %d", c.width, got, c.v)
		}
	}
}

func TestWriteUintPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteUint(8, 3) did not panic")
		}
	}()
	var w Writer
	w.WriteUint(8, 3)
}

func TestUvarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		var w Writer
		w.WriteUvarint(v)
		if w.Len() != UvarintLen(v) {
			t.Logf("UvarintLen(%d) = %d, wrote %d", v, UvarintLen(v), w.Len())
			return false
		}
		r := NewReader(w.Bytes(), w.Len())
		got, err := r.ReadUvarint()
		return err == nil && got == v && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarintSmallValuesAreSmall(t *testing.T) {
	for v := uint64(0); v < 16; v++ {
		if got := UvarintLen(v); got != 5 {
			t.Errorf("UvarintLen(%d) = %d, want 5", v, got)
		}
	}
	if got := UvarintLen(16); got != 10 {
		t.Errorf("UvarintLen(16) = %d, want 10", got)
	}
}

func TestWidthFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := WidthFor(c.n); got != c.want {
			t.Errorf("WidthFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestWidthForCoversRange(t *testing.T) {
	// Property: every value in [0, n) fits in WidthFor(n) bits.
	f := func(n uint16) bool {
		w := WidthFor(int(n))
		if n == 0 {
			return w == 1
		}
		max := uint64(n) - 1
		return max < 1<<uint(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixedEncodingRoundTrip(t *testing.T) {
	f := func(a uint64, b bool, c uint32, d uint8) bool {
		var w Writer
		w.WriteUvarint(a)
		w.WriteBool(b)
		w.WriteUint(uint64(c), 32)
		w.WriteUint(uint64(d)&0x7, 3)
		r := NewReader(w.Bytes(), w.Len())
		ga, err1 := r.ReadUvarint()
		gb, err2 := r.ReadBool()
		gc, err3 := r.ReadUint(32)
		gd, err4 := r.ReadUint(3)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return ga == a && gb == b && gc == uint64(c) && gd == uint64(d)&0x7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.WriteUint(0xFF, 8)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", w.Len())
	}
	w.WriteUint(0x5, 3)
	r := NewReader(w.Bytes(), w.Len())
	v, err := r.ReadUint(3)
	if err != nil || v != 5 {
		t.Fatalf("after reset: got %d, %v; want 5, nil", v, err)
	}
}

func TestReadUintInvalidWidth(t *testing.T) {
	r := NewReader(nil, 0)
	if _, err := r.ReadUint(65); err == nil {
		t.Error("ReadUint(65) succeeded, want error")
	}
	if _, err := r.ReadUint(-1); err == nil {
		t.Error("ReadUint(-1) succeeded, want error")
	}
}

// TestWindowEdges writes and reads a field of every straddle width at
// every bit offset, on a fresh writer and on one reset over stale ones,
// against the bit-at-a-time reference.
func TestWindowEdges(t *testing.T) {
	var dirty Writer
	for off := 0; off < 8; off++ {
		for _, width := range straddleWidths {
			var ref refWriter
			ref.writeUint(fieldValue(off), off)
			ref.writeUint(fieldValue(width), width)
			ref.writeUint(5, 3)
			var fresh Writer
			for i := 0; i < 3; i++ {
				dirty.WriteUint(^uint64(0), 64)
			}
			dirty.Reset()
			for _, w := range []*Writer{&fresh, &dirty} {
				w.WriteUint(fieldValue(off), off)
				w.WriteUint(fieldValue(width), width)
				w.WriteUint(5, 3)
				if w.Len() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
					t.Fatalf("off %d width %d (dirty %v): wrote %x (%d bits), want %x (%d bits)",
						off, width, w == &dirty, w.Bytes(), w.Len(), ref.buf, ref.nbit)
				}
			}
			r := NewReader(ref.buf, ref.nbit)
			for _, f := range []struct {
				v     uint64
				width int
			}{{fieldValue(off), off}, {fieldValue(width), width}, {5, 3}} {
				if got, err := r.ReadUint(f.width); err != nil || got != f.v {
					t.Fatalf("off %d width %d: ReadUint(%d) = %#x, %v; want %#x", off, width, f.width, got, err, f.v)
				}
			}
			if r.Remaining() != 0 {
				t.Fatalf("off %d width %d: %d bits left", off, width, r.Remaining())
			}
		}
		// A 16-group uvarint spans two windows at every offset.
		var ref refWriter
		ref.writeUint(fieldValue(off), off)
		ref.writeUvarint(fieldValue(64))
		var w Writer
		w.WriteUint(fieldValue(off), off)
		w.WriteUvarint(fieldValue(64))
		if !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("off %d: uvarint wrote %x, want %x", off, w.Bytes(), ref.buf)
		}
		r := NewReader(ref.buf, ref.nbit)
		r.ReadUint(off)
		if got, err := r.ReadUvarint(); err != nil || got != fieldValue(64) {
			t.Fatalf("off %d: ReadUvarint = %#x, %v; want %#x", off, got, err, fieldValue(64))
		}
	}
}

// TestShortPayloadReads reads every offset and width, overflowing ones
// included, from payloads shorter than one window.
func TestShortPayloadReads(t *testing.T) {
	for size := 0; size < 8; size++ {
		buf := pattern(size)
		for nbit := 0; nbit <= 8*size; nbit++ {
			for off := 0; off <= min(nbit, 7); off++ {
				for width := 0; width <= nbit-off+1; width++ {
					r := NewReader(buf, nbit)
					rr := refReader{buf: buf, nbit: nbit}
					r.ReadUint(off)
					rr.readUint(off)
					got, gerr := r.ReadUint(width)
					want, werr := rr.readUint(width)
					if got != want || !sameErr(gerr, werr) || r.Remaining() != rr.nbit-rr.pos {
						t.Fatalf("size %d nbit %d off %d: ReadUint(%d) = %#x, %v; want %#x, %v",
							size, nbit, off, width, got, gerr, want, werr)
					}
				}
				r := NewReader(buf, nbit)
				rr := refReader{buf: buf, nbit: nbit}
				r.ReadUint(off)
				rr.readUint(off)
				got, gerr := r.ReadUvarint()
				want, werr := rr.readUvarint()
				if got != want || !sameErr(gerr, werr) || r.Remaining() != rr.nbit-rr.pos {
					t.Fatalf("size %d nbit %d off %d: ReadUvarint = %#x, %v; want %#x, %v",
						size, nbit, off, got, gerr, want, werr)
				}
			}
		}
	}
}

// TestWriterNextKeepsHandedOutBytes encodes messages one after another
// with Next, across chunk boundaries and through one message longer than
// a chunk: every handed-out payload must keep the bytes it had when it
// was handed out, match the bit-at-a-time reference, and have no spare
// capacity.
func TestWriterNextKeepsHandedOutBytes(t *testing.T) {
	type sent struct{ payload, snapshot []byte }
	var (
		w    Writer
		all  []sent
		seed uint64 = 1
	)
	rand := func(n int) int { // a small LCG keeps the test self-contained
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	for msg := 0; msg < 400; msg++ {
		w.Next()
		var ref refWriter
		fields := 1 + rand(6)
		if msg == 123 {
			fields = 2 * chunkSize / 8 // longer than a chunk
		}
		for f := 0; f < fields; f++ {
			width := rand(65)
			v := uint64(seed)
			if width < 64 {
				v &= 1<<uint(width) - 1
			}
			w.WriteUint(v, width)
			ref.writeUint(v, width)
		}
		b := w.Bytes()
		if w.Len() != ref.nbit || !bytes.Equal(b, ref.buf) {
			t.Fatalf("message %d: wrote %x (%d bits), want %x (%d bits)", msg, b, w.Len(), ref.buf, ref.nbit)
		}
		if cap(b) != len(b) {
			t.Fatalf("message %d: cap(Bytes()) = %d, len %d", msg, cap(b), len(b))
		}
		all = append(all, sent{b, bytes.Clone(b)})
	}
	for i, s := range all {
		if !bytes.Equal(s.payload, s.snapshot) {
			t.Fatalf("message %d changed after it was handed out: %x, was %x", i, s.payload, s.snapshot)
		}
	}
}

// benchFields is a Theorem 8-sized message: a few ids, counters and flags.
var benchFields = []struct {
	v     uint64
	width int
}{{1, 2}, {200, 9}, {77, 9}, {3, 5}, {1 << 20, 24}, {1, 1}, {5000, 17}}

func BenchmarkWriteUint(b *testing.B) {
	var w Writer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		for _, f := range benchFields {
			w.WriteUint(f.v, f.width)
		}
	}
}

func BenchmarkReadUint(b *testing.B) {
	var w Writer
	for _, f := range benchFields {
		w.WriteUint(f.v, f.width)
	}
	buf, n := w.Bytes(), w.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf, n)
		for _, f := range benchFields {
			if _, err := r.ReadUint(f.width); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWriteUvarint(b *testing.B) {
	var w Writer
	for i := 0; i < b.N; i++ {
		w.Reset()
		w.WriteUvarint(uint64(i))
	}
}

func BenchmarkReadUvarint(b *testing.B) {
	var w Writer
	w.WriteUvarint(123456789)
	buf, n := w.Bytes(), w.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf, n)
		if _, err := r.ReadUvarint(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReadsDoNotAllocate(t *testing.T) {
	var w Writer
	w.WriteUvarint(123456789)
	w.WriteUint(0xABCDE, 37)
	buf, n := w.Bytes(), w.Len()
	avg := testing.AllocsPerRun(100, func() {
		r := Reader{buf: buf, nbit: n}
		if _, err := r.ReadUvarint(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadUint(37); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadUint(65); err == nil {
			t.Fatal("ReadUint(65) succeeded")
		}
	})
	if avg != 0 {
		t.Errorf("reads allocate %v per run, want 0", avg)
	}
}
