package dynet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Trace serialization: a compact binary format for persisting executions
// (round statistics plus, optionally, the topology sequence) so
// experiment runs can be archived and re-analyzed offline (e.g.
// recomputing dynamic diameters without re-simulating).
//
// Format DYTR v2 (fixed-width integers little-endian):
//
//	magic "DYTR" | version u16 (2) | flags u16 (bit0: topologies)
//	nodeCount u32 | roundCount u32
//	roundCount x (round u32, senders u32, bits u64, edges u32)
//	[if topologies] the Schedule: round 1's base edge list, then each
//	later round's diff, each as opCount uvarint + opCount ops
//
// Ops are canonical: strictly ascending (u, v) with u < v within a round.
// Op i is two minimal uvarints relative to op i-1 (op 0 to (0, 0)):
// u - u', then (v - w - 1) << 1 | del, where w = v' when u = u' and
// w = u otherwise. A DiffGraphs script thus costs a few bytes per op
// against v1's 8 bytes per edge per round. The decoder accepts exactly
// the bytes WriteTrace produces: decoding and re-encoding is the
// identity on every input it does not reject.
const (
	traceMagic   = "DYTR"
	traceVersion = 2
)

// WriteTrace serializes a trace. nodeCount is needed to rebuild topologies.
func WriteTrace(w io.Writer, t *Trace, nodeCount int) error {
	le := binary.LittleEndian
	var flags uint16
	if t.KeepTopologies {
		flags = 1
		if s := t.Schedule; s.Rounds != len(t.Stats) || (s.Rounds > 0 && s.N != nodeCount) {
			return fmt.Errorf("dynet: trace schedule (%d nodes, %d rounds) does not match %d nodes, %d rounds", s.N, s.Rounds, nodeCount, len(t.Stats))
		}
		if err := t.Schedule.Check(); err != nil {
			return err
		}
	}
	b := le.AppendUint16([]byte(traceMagic), traceVersion)
	b = le.AppendUint16(b, flags)
	b = le.AppendUint32(b, uint32(nodeCount))
	b = le.AppendUint32(b, uint32(len(t.Stats)))
	for _, st := range t.Stats {
		b = le.AppendUint32(b, uint32(st.Round))
		b = le.AppendUint32(b, uint32(st.Senders))
		b = le.AppendUint64(b, uint64(st.Bits))
		b = le.AppendUint32(b, uint32(st.Edges))
	}
	if t.KeepTopologies {
		for r := 1; r <= t.Schedule.Rounds; r++ {
			ops := t.Schedule.ops(r)
			b = binary.AppendUvarint(b, uint64(len(ops)))
			var pu, pv int32
			for _, op := range ops {
				w := op.U
				if op.U == pu {
					w = pv
				}
				if op.U < pu || op.V <= w {
					return fmt.Errorf("dynet: trace round %d ops not in ascending (u, v) order", r)
				}
				b = binary.AppendUvarint(b, uint64(op.U-pu))
				x := uint64(op.V-w-1) << 1
				if op.Del {
					x |= 1
				}
				b = binary.AppendUvarint(b, x)
				pu, pv = op.U, op.V
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// ReadTrace deserializes a trace written by WriteTrace, returning the trace
// and the node count. Malformed input returns an error; no header count
// sizes an allocation before the bytes it promises have been read.
func ReadTrace(r io.Reader) (*Trace, int, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return nil, 0, err
	}
	if string(hdr[:4]) != traceMagic {
		return nil, 0, fmt.Errorf("dynet: bad trace magic %q", hdr[:4])
	}
	if _, err := io.ReadFull(br, hdr[4:]); err != nil {
		return nil, 0, fmt.Errorf("dynet: trace header: %w", err)
	}
	le := binary.LittleEndian
	if version := le.Uint16(hdr[4:]); version != traceVersion {
		return nil, 0, fmt.Errorf("dynet: unsupported trace version %d", version)
	}
	flags := le.Uint16(hdr[6:])
	if flags > 1 {
		return nil, 0, fmt.Errorf("dynet: unsupported trace flags %#x", flags)
	}
	nodeCount, roundCount := int(le.Uint32(hdr[8:])), int(le.Uint32(hdr[12:]))
	t := &Trace{KeepTopologies: flags == 1}
	var rec [20]byte
	for i := 0; i < roundCount; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, 0, fmt.Errorf("dynet: trace round %d stats: %w", i+1, err)
		}
		t.Stats = append(t.Stats, RoundStats{Round: int(le.Uint32(rec[0:])), Senders: int(le.Uint32(rec[4:])),
			Bits: int(le.Uint64(rec[8:])), Edges: int(le.Uint32(rec[16:]))})
	}
	if t.KeepTopologies {
		s := Schedule{N: nodeCount, Rounds: roundCount}
		for r := 1; r <= roundCount; r++ {
			ops, err := readOps(br)
			if err != nil {
				return nil, 0, fmt.Errorf("dynet: trace round %d: %w", r, err)
			}
			if r == 1 {
				s.Base = ops
			} else {
				s.Diffs = append(s.Diffs, ops)
			}
		}
		if err := s.Check(); err != nil {
			return nil, 0, err
		}
		t.Schedule = s
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("dynet: trailing bytes after trace")
		}
		return nil, 0, err
	}
	return t, nodeCount, nil
}

// readOps decodes one round's op list (see the format comment).
func readOps(br *bufio.Reader) ([]EdgeOp, error) {
	count, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	ops := []EdgeOp{}
	var pu, pv uint64
	for i := uint64(0); i < count; i++ {
		du, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		x, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		u := pu + du
		w := u
		if du == 0 {
			w = pv
		}
		v := w + 1 + x>>1
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("op (%d, %d) out of range", u, v)
		}
		ops = append(ops, EdgeOp{U: int32(u), V: int32(v), Del: x&1 == 1})
		pu, pv = u, v
	}
	return ops, nil
}

// readUvarint reads a minimal uvarint of at most five bytes, the widest
// value the format writes, so every accepted value re-encodes to the
// bytes it was read from.
func readUvarint(br io.ByteReader) (uint64, error) {
	var x uint64
	for shift := 0; shift < 35; shift += 7 {
		c, err := br.ReadByte()
		if err == io.EOF {
			return 0, io.ErrUnexpectedEOF
		} else if err != nil {
			return 0, err
		}
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			if c == 0 && shift > 0 {
				return 0, errors.New("non-minimal varint")
			}
			return x, nil
		}
	}
	return 0, errors.New("varint overflows 35 bits")
}
