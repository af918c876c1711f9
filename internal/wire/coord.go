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

// Config configures a coordinator run. Zero-value timeouts pick defaults
// suitable for loopback clusters.
type Config struct {
	Spec RunSpec
	// Adv overrides the spec-built adversary (tests inject misbehaving
	// adversaries this way). Nil builds from the spec.
	Adv dynet.Adversary
	// Listener accepts node connections. When the spec injects faults and
	// the listener is not already a *FaultListener, Run wraps it — the
	// socket-layer injection is part of the execution semantics, not an
	// optional accessory.
	Listener net.Listener
	// Trace, Obs, Metrics mirror the Engine fields of the same names and
	// receive byte-identical content under the equivalence guarantee.
	Trace   *dynet.Trace
	Obs     obs.Sink
	Metrics *obs.Registry
	// Transport receives the wire_* counters: retries, deadline hits,
	// reconnects, CRC rejects, injected faults, folded node stats. Kept
	// separate from Metrics so equivalence comparisons stay clean.
	Transport *obs.Registry
	// RoundTimeout is the base per-attempt deadline for a round barrier
	// (default 2s).
	RoundTimeout time.Duration
	// MaxRetries bounds re-pokes per barrier (default 8).
	MaxRetries int
	// RetryBase scales the exponential backoff and its deterministic
	// jitter (default 25ms).
	RetryBase time.Duration
}

// Run drives one distributed execution to completion and returns the
// engine-equivalent Result. The rounds are dynet's round kernel
// (Engine.RunNodes) over STEP/ACT and RELAY/DELIVER/STATUS frames, the
// kernel Engine.Run also runs; on a model violation (budget, topology
// size, connectivity) Run aborts the cluster and returns the kernel's
// error.
func Run(cfg Config) (*dynet.Result, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Listener == nil {
		return nil, errors.New("wire: coordinator needs a listener")
	}
	adv := cfg.Adv
	if adv == nil {
		a, err := cfg.Spec.BuildAdversary()
		if err != nil {
			return nil, err
		}
		adv = a
	}
	ln := cfg.Listener
	plan, err := faults.NewPlan(cfg.Spec.Fault)
	if err != nil {
		return nil, err
	}
	if plan.Enabled() {
		if _, ok := ln.(*FaultListener); !ok {
			fl, err := NewFaultListener(ln, cfg.Spec.Fault, cfg.Transport)
			if err != nil {
				return nil, err
			}
			ln = fl
		}
	}
	co := newCoordinator(cfg, ln)
	defer co.close()
	return co.run(&dynet.Engine{
		Adv:               adv,
		CheckConnectivity: cfg.Spec.CheckConnectivity,
		Trace:             cfg.Trace,
		Obs:               cfg.Obs,
		Metrics:           cfg.Metrics,
		Plan:              plan,
	})
}

const (
	phaseIdle = iota
	phaseActs
	phaseStatus
	phaseStats
)

// inFrame is one frame (or read error) from a node's reader goroutine.
type inFrame struct {
	node, gen int
	f         Frame
	err       error
}

// joined is a handshake completion from the accept path.
type joined struct {
	conn     net.Conn
	id       int
	lastDone int
}

type link struct {
	conn      net.Conn
	connected bool
	gen       int
	everSeen  bool
}

type coordinator struct {
	cfg      Config
	n        int
	termNode int
	ln       net.Listener

	frames chan inFrame
	conns  chan joined
	quit   chan struct{}

	links     []link
	joinReady []bool

	jit *rng.Source

	// outputs and statusDec track each node's last reported (output,
	// decided).
	outputs   []int64
	statusDec []bool

	// rd is the kernel's round in progress, from the first Step on: the
	// ACT handler commits into it and Down is the round's crash mask.
	rd       *dynet.Round
	phase    int
	round    int
	curActs  []bool
	curStats []bool
	curInbox [][]dynet.Message
	statsGot []bool

	// Per-finalized-round log for crash-rejoin replay: the down mask and
	// every node's post-fault inbox.
	logDown  [][]bool
	logInbox [][][]dynet.Message

	// Transport handles, all resolved here: the registry is not safe for
	// concurrent use, and the accept path runs on other goroutines.
	cRetries, cDeadlineHits, cReconnects, cCRC *obs.Counter
	cNodeRedials, cNodeCRC, cNodeReplayed      *obs.Counter
}

func newCoordinator(cfg Config, ln net.Listener) *coordinator {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 8
	}
	if cfg.RoundTimeout == 0 {
		cfg.RoundTimeout = 2 * time.Second
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	n := cfg.Spec.N
	termNode, _ := cfg.Spec.TermNode()
	co := &coordinator{
		cfg:      cfg,
		n:        n,
		termNode: termNode,
		ln:       ln,

		frames: make(chan inFrame, 8*n+16),
		conns:  make(chan joined, 2*n+4),
		quit:   make(chan struct{}),

		links:     make([]link, n),
		joinReady: make([]bool, n),

		jit: rng.New(cfg.Spec.Seed).Split('w', 'i', 'r', 'e'),

		outputs:   make([]int64, n),
		statusDec: make([]bool, n),

		curActs:  make([]bool, n),
		curStats: make([]bool, n),
		curInbox: make([][]dynet.Message, n),
		statsGot: make([]bool, n),

		cRetries:      cfg.Transport.Counter("wire_retries_total"),
		cDeadlineHits: cfg.Transport.Counter("wire_deadline_hits_total"),
		cReconnects:   cfg.Transport.Counter("wire_reconnects_total"),
		cCRC:          cfg.Transport.Counter("wire_coord_crc_rejects_total"),
		cNodeRedials:  cfg.Transport.Counter("wire_node_redials_total"),
		cNodeCRC:      cfg.Transport.Counter("wire_crc_rejects_total"),
		cNodeReplayed: cfg.Transport.Counter("wire_replayed_rounds_total"),
	}
	return co
}

func (co *coordinator) close() {
	close(co.quit)
	co.ln.Close()
	for v := range co.links {
		if co.links[v].conn != nil {
			co.links[v].conn.Close()
		}
	}
}

// run joins the cluster, runs the kernel over it and collects the
// nodes' transport stats.
func (co *coordinator) run(e *dynet.Engine) (*dynet.Result, error) {
	go co.acceptLoop()
	if err := co.await(0, co.joinReady, "node handshakes"); err != nil {
		return nil, co.fail(err)
	}
	res, err := e.RunNodes(co, co.n, co.cfg.Spec.MaxRounds)
	if err != nil {
		return nil, co.fail(err)
	}
	co.finish()
	return res, nil
}

// Step implements dynet.Nodes: STEP fan-out and ACT fan-in. Down nodes
// are frozen by the socket wrapper (their STEP frames are swallowed, the
// crash transition hard-closes the connection), so the barrier does not
// wait for them; the kernel commits them to a silent Receive.
func (co *coordinator) Step(rd *dynet.Round) error {
	co.rd, co.round, co.phase = rd, rd.R, phaseActs
	for v := 0; v < co.n; v++ {
		down := co.downNow(v)
		co.curActs[v], co.curStats[v] = down, down
	}
	step := Frame{Type: FrameStep, Round: int32(rd.R)}
	for v := 0; v < co.n; v++ {
		co.writeTo(v, &step)
	}
	return co.await(rd.R, co.curActs, "send/receive commitments")
}

// Deliver implements dynet.Nodes: RELAY+DELIVER fan-out, receivers
// ascending and senders ascending within each receiver (the kernel's
// collect order), then STATUS fan-in. The live relays carry the original
// messages and take their faults on the wire; the kernel's post-fault
// inboxes, which plan purity keeps in exact agreement with them, are
// kept for the replay log and redelivery.
func (co *coordinator) Deliver(rd *dynet.Round) error {
	co.snapshotInboxes(rd.Inboxes)
	co.phase = phaseStatus
	for v := 0; v < co.n; v++ {
		if co.downNow(v) || !co.links[v].connected {
			continue
		}
		if rd.Actions[v] == dynet.Receive {
			for _, u := range rd.G.Adj(v) {
				if rd.Actions[u] != dynet.Send {
					continue
				}
				relay := Frame{
					Type: FrameRelay, Round: int32(rd.R),
					From: u, To: int32(v),
					NBits:   int32(rd.Outgoing[u].NBits),
					Payload: rd.Outgoing[u].Payload,
				}
				if !co.writeTo(v, &relay) {
					break
				}
			}
		}
		co.writeTo(v, &Frame{Type: FrameDeliver, Round: int32(rd.R)})
	}
	if err := co.await(rd.R, co.curStats, "round statuses"); err != nil {
		return err
	}
	co.finalizeRound()
	co.phase = phaseIdle
	return nil
}

// Output implements dynet.Nodes from node v's last status.
func (co *coordinator) Output(v int) (int64, bool) { return co.outputs[v], co.statusDec[v] }

// Done implements dynet.Nodes: the spec's termination node has decided,
// or every node has when the spec names none.
func (co *coordinator) Done() bool {
	if co.termNode >= 0 {
		return co.statusDec[co.termNode]
	}
	return all(co.statusDec)
}

func (co *coordinator) downNow(v int) bool {
	return co.rd != nil && co.rd.Down != nil && co.rd.Down[v]
}

// finalizeRound snapshots the round into the replay log.
func (co *coordinator) finalizeRound() {
	var down []bool
	if co.rd.Down != nil {
		down = append([]bool(nil), co.rd.Down...)
	}
	co.logDown = append(co.logDown, down)
	inboxes := make([][]dynet.Message, co.n)
	copy(inboxes, co.curInbox)
	co.logInbox = append(co.logInbox, inboxes)
}

// snapshotInboxes deep-copies the post-fault inboxes: the kernel reuses
// its inbox arenas every round, but the replay log and mid-round
// redelivery need round-r's contents to survive round r+1.
func (co *coordinator) snapshotInboxes(inboxes [][]dynet.Message) {
	for v := 0; v < co.n; v++ {
		src := inboxes[v]
		if len(src) == 0 {
			co.curInbox[v] = nil
			continue
		}
		dst := make([]dynet.Message, len(src))
		for i, m := range src {
			dst[i] = dynet.Message{From: m.From, NBits: m.NBits, Payload: append([]byte(nil), m.Payload...)}
		}
		co.curInbox[v] = dst
	}
}

func all(flags []bool) bool {
	for _, f := range flags {
		if !f {
			return false
		}
	}
	return true
}

// poke resyncs every node still owing the current barrier; the node side
// is idempotent, so a poke can never double-step or double-deliver.
func (co *coordinator) poke() {
	for v := range co.links {
		co.resyncNode(v)
	}
}

// redoRoundTail replays the current round's coordinator→node frames for
// one node from the recorded post-fault inbox. FlagNoFault keeps the
// socket wrapper from faulting the already-adjudicated copies twice.
func (co *coordinator) redoRoundTail(v int) {
	if !co.writeTo(v, &Frame{Type: FrameStep, Round: int32(co.round), Flags: FlagNoFault}) {
		return
	}
	for _, m := range co.curInbox[v] {
		relay := Frame{
			Type: FrameRelay, Round: int32(co.round), Flags: FlagNoFault,
			From: int32(m.From), To: int32(v), NBits: int32(m.NBits), Payload: m.Payload,
		}
		if !co.writeTo(v, &relay) {
			return
		}
	}
	co.writeTo(v, &Frame{Type: FrameDeliver, Round: int32(co.round), Flags: FlagNoFault})
}

// await pumps events until every flag is set, with per-attempt
// deadlines, bounded retries (each poking the stragglers), exponential
// backoff, and deterministic jitter.
func (co *coordinator) await(r int, flags []bool, what string) error {
	for attempt := 0; ; attempt++ {
		if !co.pumpUntil(flags, co.attemptTimeout(r, attempt)) {
			return nil
		}
		co.cDeadlineHits.Add(1)
		if attempt >= co.cfg.MaxRetries {
			return fmt.Errorf("wire: run stalled in round %d waiting for %s (%d attempts)", r, what, attempt+1)
		}
		co.cRetries.Add(1)
		co.poke()
	}
}

// pumpUntil processes frames and joins until every flag is set (returns
// false) or the deadline passes (returns true).
func (co *coordinator) pumpUntil(flags []bool, d time.Duration) (timedOut bool) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for !all(flags) {
		select {
		case ev := <-co.frames:
			co.handleFrame(ev)
		case j := <-co.conns:
			co.handleJoin(j)
		case <-timer.C:
			return true
		}
	}
	return false
}

// attemptTimeout grows the barrier deadline exponentially with a
// deterministic jitter drawn from the spec seed.
func (co *coordinator) attemptTimeout(r, attempt int) time.Duration {
	shift := attempt
	if shift > 10 {
		shift = 10
	}
	backoff := co.cfg.RetryBase << uint(shift)
	jitter := time.Duration(co.jit.Split('t', uint64(r), uint64(attempt)).Uint64() % uint64(co.cfg.RetryBase))
	return co.cfg.RoundTimeout + backoff + jitter
}

// handleJoin adopts a freshly handshaken connection: welcome, replay the
// node's gap, and start its reader. Called only from the coordinator
// goroutine.
func (co *coordinator) handleJoin(j joined) {
	if j.id < 0 || j.id >= co.n {
		j.conn.Close()
		return
	}
	l := &co.links[j.id]
	if l.conn != nil {
		l.conn.Close()
	}
	l.gen++
	l.conn = j.conn
	l.connected = true
	if l.everSeen {
		co.cReconnects.Add(1)
	}
	l.everSeen = true
	if fc, ok := j.conn.(*FaultConn); ok {
		fc.Bind(j.id)
	}

	specJSON, err := EncodeRunSpec(co.cfg.Spec)
	if err != nil {
		co.markDead(j.id)
		return
	}
	if !co.writeTo(j.id, &Frame{Type: FrameWelcome, Round: int32(len(co.logDown)), Payload: specJSON}) {
		return
	}
	if finalized := len(co.logDown); j.lastDone < finalized {
		payload := co.encodeReplay(j.id, j.lastDone+1, finalized)
		if !co.writeTo(j.id, &Frame{Type: FrameReplay, Round: int32(finalized), Payload: payload}) {
			return
		}
	}
	go co.reader(j.id, l.gen, j.conn)
}

// reader pumps one connection's frames into the coordinator.
func (co *coordinator) reader(node, gen int, conn net.Conn) {
	for {
		f, err := ReadFrame(conn)
		select {
		case co.frames <- inFrame{node: node, gen: gen, f: f, err: err}:
		case <-co.quit:
			return
		}
		if err != nil && !errors.Is(err, ErrCRC) {
			return
		}
	}
}

func (co *coordinator) handleFrame(ev inFrame) {
	v := ev.node
	if ev.gen != co.links[v].gen {
		return // stale connection generation
	}
	if ev.err != nil {
		if errors.Is(ev.err, ErrCRC) {
			// Node→coordinator frames are never fault-injected, so a CRC
			// failure here is line noise: drop the record and let the
			// round barrier's retry machinery re-poke.
			co.cCRC.Add(1)
			return
		}
		co.markDead(v)
		return
	}
	f := ev.f
	switch f.Type {
	case FrameReady:
		co.joinReady[v] = true
		co.outputs[v] = frameOutput(f)
		co.statusDec[v] = f.Flags&FlagDecided != 0
		co.resyncNode(v)
	case FrameAct:
		if int(f.Round) != co.round || co.phase != phaseActs || co.curActs[v] {
			return
		}
		co.curActs[v] = true
		if f.Flags&FlagSend != 0 {
			co.rd.Actions[v], co.rd.Outgoing[v] = dynet.Send, dynet.Message{Payload: f.Payload, NBits: int(f.NBits)}
		} else {
			co.rd.Actions[v], co.rd.Outgoing[v] = dynet.Receive, dynet.Message{}
		}
	case FrameStatus:
		if int(f.Round) != co.round || co.phase != phaseStatus || co.curStats[v] {
			return
		}
		co.curStats[v] = true
		co.outputs[v] = frameOutput(f)
		co.statusDec[v] = f.Flags&FlagDecided != 0
	case FrameStats:
		if !co.statsGot[v] {
			co.statsGot[v] = true
			co.foldNodeStats(f.Payload)
		}
	}
}

// resyncNode brings a rejoined or straggling node into the current
// phase: during the commitment barrier a fresh STEP suffices; during the
// status barrier the whole round tail is redone from the recorded inbox;
// once the run is over, FINISH collects its stats even if it is down in
// the last round.
func (co *coordinator) resyncNode(v int) {
	switch {
	case co.phase == phaseStats:
		if !co.statsGot[v] {
			co.writeTo(v, &Frame{Type: FrameFinish})
		}
	case co.downNow(v):
	case co.phase == phaseActs:
		if !co.curActs[v] {
			co.writeTo(v, &Frame{Type: FrameStep, Round: int32(co.round)})
		}
	case co.phase == phaseStatus:
		if !co.curStats[v] {
			co.redoRoundTail(v)
		}
	}
}

// writeTo writes one frame to a node's link, arming a write deadline so
// a wedged peer cannot block the barrier; a failed write marks the link
// dead (the node will reconnect and resync).
func (co *coordinator) writeTo(v int, f *Frame) bool {
	l := &co.links[v]
	if !l.connected {
		return false
	}
	l.conn.SetWriteDeadline(time.Now().Add(co.cfg.RoundTimeout)) //lint:allow wiredeterminism deadline arming is the sanctioned wall-clock use
	if err := WriteFrame(l.conn, f); err != nil {
		co.markDead(v)
		return false
	}
	return true
}

func (co *coordinator) markDead(v int) {
	l := &co.links[v]
	if l.connected {
		l.connected = false
		l.conn.Close()
	}
}

// fail aborts the cluster with the run's error and returns it.
func (co *coordinator) fail(err error) error {
	abort := Frame{Type: FrameAbort, Payload: []byte(err.Error())}
	for v := 0; v < co.n; v++ {
		if co.links[v].connected {
			co.writeTo(v, &abort)
		}
	}
	return err
}

// finish ends the run: FINISH fan-out, then STATS fan-in from every node
// (folded into the transport registry). A node that crashed in the last
// rounds may still be redialing; its READY gets a FINISH (resyncNode),
// so the listener stays open until its stats arrive or the retry budget
// runs out.
func (co *coordinator) finish() {
	co.phase = phaseStats
	co.poke()
	// Stats are observability, not model state: exhaust the retry budget,
	// then proceed without error.
	co.await(co.round, co.statsGot, "transport stats")
	co.phase = phaseIdle
}

// foldNodeStats merges one node's reported transport counters.
func (co *coordinator) foldNodeStats(payload []byte) {
	st, err := parseNodeStats(payload)
	if err != nil {
		return
	}
	co.cNodeRedials.Add(st.Redials)
	co.cNodeCRC.Add(st.CRCRejects)
	co.cNodeReplayed.Add(st.ReplayedRounds)
}

// acceptLoop accepts connections and handshakes each on its own
// goroutine; completed handshakes are handed to the coordinator.
func (co *coordinator) acceptLoop() {
	for {
		c, err := co.ln.Accept()
		if err != nil {
			return
		}
		go co.handshake(c)
	}
}

// handshake reads the HELLO that opens every node connection.
func (co *coordinator) handshake(c net.Conn) {
	c.SetReadDeadline(time.Now().Add(co.cfg.RoundTimeout * time.Duration(co.cfg.MaxRetries+1))) //lint:allow wiredeterminism deadline arming is the sanctioned wall-clock use
	f, err := ReadFrame(c)
	if err != nil || f.Type != FrameHello {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	select {
	case co.conns <- joined{conn: c, id: int(f.From), lastDone: int(f.Round)}:
	case <-co.quit:
		c.Close()
	}
}
