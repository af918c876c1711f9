package wire

import (
	"encoding/binary"
	"net"

	"dyndiam/internal/faults"
	"dyndiam/internal/obs"
)

// FaultListener wraps a net.Listener so every accepted connection
// injects the fault spec at the socket layer, on the coordinator→node
// byte stream:
//
//   - drop: the relay frame is swallowed whole — the receiver never sees
//     the record.
//   - corrupt: one payload bit is flipped in place, leaving the CRC
//     stale; the receiver's checksum catches it and adjudicates against
//     its own plan (accepting the damage as the injected model fault).
//   - dup: the relay frame is written twice, back to back.
//   - crash: at a node's crash transition the underlying connection is
//     hard-closed, and every round frame addressed to the node is
//     swallowed for as long as the plan keeps it down.
//
// Each connection compiles its own Plan from the shared Spec, so every
// decision is a pure function of (seed, round, node, edge) — the round
// kernel's fault accounting in the coordinator (dynet.Engine.RunNodes)
// reaches the same verdicts without any channel between them, which is
// what keeps the distributed run byte-equivalent to Engine.Run.
type FaultListener struct {
	net.Listener
	spec faults.Spec

	// The wire_fault_* handles, resolved once: Accept runs on the accept
	// goroutine, and the registry is not safe for concurrent use.
	cDrops, cCorrupts, cDups, cCloses *obs.Counter
}

// NewFaultListener validates the spec and wraps ln. The transport
// registry (optional) receives wire_fault_* injection counters.
func NewFaultListener(ln net.Listener, spec faults.Spec, transport *obs.Registry) (*FaultListener, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &FaultListener{
		Listener:  ln,
		spec:      spec,
		cDrops:    transport.Counter("wire_fault_drops_total"),
		cCorrupts: transport.Counter("wire_fault_corrupts_total"),
		cDups:     transport.Counter("wire_fault_dups_total"),
		cCloses:   transport.Counter("wire_fault_crash_closes_total"),
	}, nil
}

// Accept wraps the next connection in a *FaultConn.
func (l *FaultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	plan, err := faults.NewPlan(l.spec)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &FaultConn{
		Conn:      c,
		plan:      plan,
		node:      -1,
		cDrops:    l.cDrops,
		cCorrupts: l.cCorrupts,
		cDups:     l.cDups,
		cCloses:   l.cCloses,
	}, nil
}

// FaultConn injects the plan into the outgoing (coordinator→node) frame
// stream. Reads pass through untouched — node→coordinator frames carry
// commitments and statuses, which the model never faults.
//
// Bind and Write must be called from one goroutine (the coordinator's);
// reads may run concurrently from a reader goroutine.
type FaultConn struct {
	net.Conn
	plan *faults.Plan
	node int // bound node id, -1 until the Hello is seen

	buf     []byte // partial-frame accumulation across Write calls
	crashed bool   // hard close already performed

	cDrops, cCorrupts, cDups, cCloses *obs.Counter
}

// Bind associates the connection with its node id, enabling injection.
// Until the Hello identifies the peer, frames pass through unfaulted.
func (c *FaultConn) Bind(node int) { c.node = node }

// Write parses the outgoing byte stream into frames and applies the
// plan to each complete record. It reports the input as consumed even
// when frames are swallowed: a dropped frame is a delivered fault, not a
// transport failure.
func (c *FaultConn) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	consumed := 0
	for {
		if len(c.buf)-consumed < 4 {
			break
		}
		rec := c.buf[consumed:]
		total := int(binary.BigEndian.Uint32(rec[:4]))
		if len(rec) < 4+total {
			break
		}
		if err := c.inject(rec[:4+total]); err != nil {
			c.buf = c.buf[:0]
			return len(p), err
		}
		consumed += 4 + total
	}
	// Keep only the unconsumed tail; copying keeps the buffer from
	// aliasing the caller's slice and from growing without bound.
	tail := c.buf[consumed:]
	c.buf = append(c.buf[:0], tail...)
	return len(p), nil
}

// inject decides one frame's fate and writes 0, 1, or 2 copies to the
// underlying connection. rec is the full record including length prefix.
func (c *FaultConn) inject(rec []byte) error {
	typ := FrameType(rec[4])
	flags := rec[5]
	if c.node < 0 || flags&FlagNoFault != 0 {
		return c.forward(rec)
	}
	switch typ {
	case FrameStep, FrameRelay, FrameDeliver:
	default:
		// Control frames (Welcome, Replay, Finish, Abort) are transport,
		// not model messages; they are never faulted.
		return c.forward(rec)
	}
	r := int(int32(binary.BigEndian.Uint32(rec[6:10])))
	if c.plan.Down(r, c.node) {
		// The node is crashed for round r: everything addressed to it is
		// lost. The crash transition itself is a hard connection close —
		// the socket-level form of the fault.
		if typ == FrameStep && !c.plan.Down(r-1, c.node) && !c.crashed {
			c.crashed = true
			c.cCloses.Add(1)
			c.Conn.Close()
		}
		return nil
	}
	if typ != FrameRelay {
		return c.forward(rec)
	}
	from := int(int32(binary.BigEndian.Uint32(rec[10:14])))
	to := int(int32(binary.BigEndian.Uint32(rec[14:18])))
	nbits := int(int32(binary.BigEndian.Uint32(rec[18:22])))
	d := c.plan.Delivery(r, from, to, nbits)
	if d.Drop {
		c.cDrops.Add(1)
		return nil
	}
	if d.FlipBit >= 0 {
		// Flip the same payload bit the engine's corruptCopy would,
		// leaving the trailing CRC stale so the receiver detects it.
		payload := rec[4+frameHeaderLen : len(rec)-4]
		if byteIdx := d.FlipBit / 8; byteIdx < len(payload) {
			payload[byteIdx] ^= 1 << uint(d.FlipBit%8)
			c.cCorrupts.Add(1)
		}
	}
	if err := c.forward(rec); err != nil {
		return err
	}
	if d.Dup {
		c.cDups.Add(1)
		return c.forward(rec)
	}
	return nil
}

func (c *FaultConn) forward(rec []byte) error {
	_, err := c.Conn.Write(rec)
	return err
}
