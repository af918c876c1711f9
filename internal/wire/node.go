package wire

import (
	"errors"
	"fmt"
	"net"
	"time"

	"dyndiam/internal/dynet"
	"dyndiam/internal/faults"
	"dyndiam/internal/obs"
	"dyndiam/internal/rng"
)

// NodeConfig configures one node process.
type NodeConfig struct {
	// ID is the node id (0..n-1); the machine it owns is determined by
	// the RunSpec arriving in the WELCOME frame.
	ID int
	// Addr is the coordinator's TCP address.
	Addr string
	// DialRetries bounds consecutive failed dials and consecutive dead
	// sessions (default 10).
	DialRetries int
	// DialBase scales the dial backoff and its jitter (default 50ms).
	DialBase time.Duration
	// IdleTimeout is the per-frame read deadline; an idle connection past
	// it is presumed lost and redialed (default 2m).
	IdleTimeout time.Duration
	// Stats, when non-nil, receives the node's transport counters
	// (wire_node_*) in addition to the STATS report to the coordinator.
	Stats *obs.Registry
}

// RunNode runs one node process to completion: dial the coordinator,
// handshake (with replay catch-up when rejoining), then serve the round
// barrier until FINISH or ABORT. Lost connections are re-established
// with bounded, jittered backoff; all protocol handling is idempotent,
// so coordinator re-pokes after a reconnect can never double-step or
// double-deliver the machine.
func RunNode(cfg NodeConfig) error {
	if cfg.DialRetries == 0 {
		cfg.DialRetries = 10
	}
	if cfg.DialBase == 0 {
		cfg.DialBase = 50 * time.Millisecond
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	ns := &nodeState{
		cfg: cfg,
		// Until the WELCOME carries the run seed, jitter draws from an
		// id-derived seed; timing is the only thing it influences.
		jit: rng.New(uint64(cfg.ID)+1).Split('d', 'i', 'a', 'l'),
	}
	deadSessions := 0
	for {
		conn, err := ns.dial()
		if err != nil {
			return err
		}
		done, progressed, err := ns.session(conn)
		conn.Close()
		if done {
			return err
		}
		if progressed {
			deadSessions = 0
		} else if deadSessions++; deadSessions > cfg.DialRetries {
			return fmt.Errorf("wire: node %d: %d consecutive dead sessions with %s", cfg.ID, deadSessions, cfg.Addr)
		}
		ns.stats.Redials++
	}
}

type nodeState struct {
	cfg  NodeConfig
	spec RunSpec
	m    dynet.Machine
	plan *faults.Plan
	jit  *rng.Source

	// lastStepped/lastDelivered define the protocol position; their gap
	// (at most the in-progress round) makes every handler idempotent.
	lastStepped   int
	lastDelivered int
	lastAct       dynet.Action
	lastOut       dynet.Message
	inbox         []dynet.Message

	stats nodeStats
}

// dial connects to the coordinator with bounded exponential backoff and
// deterministic jitter.
func (ns *nodeState) dial() (net.Conn, error) {
	var lastErr error
	for a := 0; a <= ns.cfg.DialRetries; a++ {
		if a > 0 {
			shift := a - 1
			if shift > 10 {
				shift = 10
			}
			backoff := ns.cfg.DialBase << uint(shift)
			jitter := time.Duration(ns.jit.Split(uint64(ns.stats.Redials), uint64(a)).Uint64() % uint64(ns.cfg.DialBase))
			time.Sleep(backoff + jitter)
		}
		c, err := net.Dial("tcp", ns.cfg.Addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("wire: node %d cannot reach coordinator at %s: %w", ns.cfg.ID, ns.cfg.Addr, lastErr)
}

// session serves one connection until the run ends (done=true) or the
// transport fails (done=false → redial). progressed reports whether any
// frame was served, which resets the dead-session budget.
func (ns *nodeState) session(conn net.Conn) (done, progressed bool, err error) {
	if err := WriteFrame(conn, &Frame{Type: FrameHello, From: int32(ns.cfg.ID), Round: int32(ns.lastDelivered)}); err != nil {
		return false, false, nil
	}
	for {
		conn.SetReadDeadline(time.Now().Add(ns.cfg.IdleTimeout)) //lint:allow determinism deadline arming is the sanctioned wall-clock use
		f, rerr := ReadFrame(conn)
		if rerr != nil {
			if errors.Is(rerr, ErrCRC) {
				ns.adjudicateCRC(conn, f)
				progressed = true
				continue
			}
			return false, progressed, nil
		}
		progressed = true
		switch f.Type {
		case FrameWelcome:
			if err := ns.handleWelcome(conn, f); err != nil {
				return true, true, err
			}
		case FrameReplay:
			if err := ns.handleReplay(conn, f); err != nil {
				return true, true, err
			}
		case FrameStep:
			ns.handleStep(conn, f)
		case FrameRelay:
			ns.handleRelay(f)
		case FrameDeliver:
			ns.handleDeliver(conn, f)
		case FrameFinish:
			ns.reportStats(conn)
			return true, true, nil
		case FrameAbort:
			// The coordinator's model error, verbatim — the node process
			// fails with the same text the engine would return.
			return true, true, errors.New(string(f.Payload))
		}
	}
}

// handleWelcome builds the machine and fault plan from the spec (once;
// re-welcomes after a redial reuse the live machine — its state is the
// whole point of surviving the reconnect). When the coordinator has
// finalized rounds this node is missing, a REPLAY frame follows and
// READY waits for it.
func (ns *nodeState) handleWelcome(conn net.Conn, f Frame) error {
	if ns.m == nil {
		spec, err := ParseRunSpec(f.Payload)
		if err != nil {
			return err
		}
		machines, err := spec.Machines()
		if err != nil {
			return err
		}
		if ns.cfg.ID < 0 || ns.cfg.ID >= spec.N {
			return fmt.Errorf("wire: node id %d outside run over %d nodes", ns.cfg.ID, spec.N)
		}
		plan, err := faults.NewPlan(spec.Fault)
		if err != nil {
			return err
		}
		ns.spec = spec
		ns.m = machines[ns.cfg.ID]
		ns.plan = plan
		ns.jit = rng.New(spec.Seed).Split('n', uint64(ns.cfg.ID))
	}
	if int(f.Round) <= ns.lastDelivered {
		ns.sendReady(conn)
	}
	return nil
}

// handleReplay applies the catch-up log: skip down rounds (the machine
// was frozen), step-and-deliver the rest from the recorded post-fault
// inboxes.
func (ns *nodeState) handleReplay(conn net.Conn, f Frame) error {
	from, rounds, err := parseReplay(f.Payload)
	if err != nil {
		return err
	}
	for i, rr := range rounds {
		q := from + i
		if q <= ns.lastDelivered {
			continue
		}
		if !rr.down {
			act, msg := ns.m.Step(q)
			ns.lastAct, ns.lastOut = act, msg
			if act == dynet.Receive {
				ns.m.Deliver(q, rr.inbox)
			}
			ns.stats.ReplayedRounds++
		}
		ns.lastStepped, ns.lastDelivered = q, q
	}
	ns.sendReady(conn)
	return nil
}

func (ns *nodeState) sendReady(conn net.Conn) {
	out, dec := ns.m.Output()
	var flags uint8
	if dec {
		flags |= FlagDecided
	}
	_ = WriteFrame(conn, &Frame{Type: FrameReady, Flags: flags, Round: int32(ns.lastDelivered), From: int32(ns.cfg.ID), Payload: appendOutput(out)}) // write failure surfaces on the next read
}

// handleStep commits round r. Re-pokes for the already-stepped round
// resend the cached commitment without touching the machine; a NoFault
// re-poke additionally resets the in-progress inbox, because the
// coordinator is about to redeliver it in full.
func (ns *nodeState) handleStep(conn net.Conn, f Frame) {
	r := int(f.Round)
	switch {
	case r == ns.lastStepped && r > ns.lastDelivered:
		if f.Flags&FlagNoFault != 0 {
			ns.inbox = ns.inbox[:0]
		}
	case r > ns.lastStepped && ns.lastStepped == ns.lastDelivered:
		// A gap over lastStepped+1 is a crash outage the coordinator ran
		// without us; the machine was frozen for it, exactly like the
		// engine's down nodes.
		act, msg := ns.m.Step(r)
		ns.lastStepped = r
		ns.lastAct, ns.lastOut = act, msg
		ns.inbox = ns.inbox[:0]
	default:
		return // stale frame from an earlier barrier
	}
	af := Frame{Type: FrameAct, Round: int32(r), From: int32(ns.cfg.ID)}
	if ns.lastAct == dynet.Send {
		af.Flags |= FlagSend
		af.NBits = int32(ns.lastOut.NBits)
		af.Payload = ns.lastOut.Payload
	}
	_ = WriteFrame(conn, &af) // write failure surfaces on the next read
}

// handleRelay appends one inbox message for the in-progress round.
func (ns *nodeState) handleRelay(f Frame) {
	if int(f.Round) != ns.lastStepped || ns.lastDelivered == ns.lastStepped {
		return // stale, or the round was already delivered (redo overlap)
	}
	ns.inbox = append(ns.inbox, dynet.Message{From: int(f.From), NBits: int(f.NBits), Payload: f.Payload})
}

// handleDeliver closes round r's inbox, delivers it (if this node
// committed Receive), and reports status. A re-poke for an
// already-delivered round resends the status from the machine's stable
// post-round state.
func (ns *nodeState) handleDeliver(conn net.Conn, f Frame) {
	r := int(f.Round)
	switch {
	case r == ns.lastDelivered && r > 0:
		// cached status below
	case r == ns.lastStepped && r > ns.lastDelivered:
		if ns.lastAct == dynet.Receive {
			// Relays arrive in the coordinator's ascending-sender order, but
			// sort with the engine's stable pass anyway — identical no-op on
			// sorted input, and it keeps delivery order a shared invariant
			// rather than a transport accident.
			dynet.SortMessagesByFrom(ns.inbox)
			ns.m.Deliver(r, ns.inbox)
		}
		ns.lastDelivered = r
	default:
		return
	}
	out, dec := ns.m.Output()
	var flags uint8
	if dec {
		flags |= FlagDecided
	}
	_ = WriteFrame(conn, &Frame{Type: FrameStatus, Flags: flags, Round: int32(r), From: int32(ns.cfg.ID), Payload: appendOutput(out)}) // write failure surfaces on the next read
}

// adjudicateCRC decides a checksum-failed frame's fate against the
// node's own fault plan: a relay whose (round, edge) the plan corrupts
// is the injected model fault — accept the damaged payload exactly as
// the engine's corruptCopy recipient would. Anything else is line noise
// and is discarded; the coordinator's retry machinery re-pokes.
func (ns *nodeState) adjudicateCRC(conn net.Conn, f Frame) {
	ns.stats.CRCRejects++
	if f.Type != FrameRelay || ns.plan == nil {
		return
	}
	d := ns.plan.Delivery(int(f.Round), int(f.From), int(f.To), int(f.NBits))
	if d.FlipBit >= 0 {
		ns.handleRelay(f)
	}
}

// reportStats answers FINISH with the transport counter report and
// mirrors it into the local registry, then lets the session end.
func (ns *nodeState) reportStats(conn net.Conn) {
	if reg := ns.cfg.Stats; reg != nil {
		reg.Counter("wire_node_redials_total").Add(ns.stats.Redials)
		reg.Counter("wire_crc_rejects_total").Add(ns.stats.CRCRejects)
		reg.Counter("wire_replayed_rounds_total").Add(ns.stats.ReplayedRounds)
	}
	_ = WriteFrame(conn, &Frame{Type: FrameStats, From: int32(ns.cfg.ID), Payload: encodeNodeStats(ns.stats)}) // the run is over; nothing depends on the report landing
}
