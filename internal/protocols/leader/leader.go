// Package leader implements the paper's Section 7 upper-bound protocol:
// leader election in O(log N) flooding rounds without knowing the diameter,
// given an estimate N' with |N'-N|/N <= 1/3-c for a constant c > 0.
//
// The protocol proceeds in phases with a doubling diameter guess D'. Each
// phase has four subphases:
//
//	SPREAD — gossip the largest id seen (plus pending unlock notices and,
//	         always, the leader announcement once one exists);
//	COUNT1 — majority counting of "which candidate id do you currently
//	         support": a node V whose own id survived SPREAD checks that a
//	         majority of nodes have seen V's id *before* acquiring any
//	         locks. This is the paper's key trick to avoid excessive lock
//	         rollbacks: with high probability at most one candidate per
//	         phase proceeds to locking.
//	LOCK   — the surviving candidate floods lock(V, phase); a node accepts
//	         the first lock it hears unless it is already locked.
//	COUNT2 — majority counting of "who holds your lock". If V locked a
//	         majority it declares itself leader and floods the announcement
//	         in all future rounds; otherwise it floods unlock(V, phase) in
//	         future SPREADs and the locks roll back.
//
// Majority counting uses the one-sided sketch machinery of package
// counting; its conservative threshold needs exactly the |N'-N|/N <= 1/3-c
// premise of Theorem 8. Locks are phase-stamped so a stale unlock can never
// void a later, legitimate lock.
//
// Correctness is as in the paper: a declared leader has locked a true
// majority (w.h.p.), which no other candidate can also do; and once
// D' >= D, SPREAD delivers the globally largest id and all outstanding
// unlocks everywhere, so the largest-id node passes both counts and wins.
// The total running time is dominated by the last phase,
// O(k (D + log N)) = O(D log^2 N) rounds with k = Θ(log N) sketch copies —
// O(log N) flooding rounds up to the extra log factor our round-robin
// single-record-per-message counting costs relative to the paper's [18]
// invocation (see DESIGN.md, substitutions).
package leader

import (
	"dyndiam/internal/bitio"
	"dyndiam/internal/dynet"
	"dyndiam/internal/obs"
	"dyndiam/internal/protocols/counting"
	"dyndiam/internal/rng"
)

// Interned event names, created once so emit paths stay allocation-free.
var (
	keySpread    = obs.Intern("spread")
	keyCount1    = obs.Intern("count1")
	keyLock      = obs.Intern("lock")
	keyCount2    = obs.Intern("count2")
	keyCandidacy = obs.Intern("candidacy")
	keyLeader    = obs.Intern("leader_declared")
)

// subphaseKeys maps subphase indices to their interned span names.
var subphaseKeys = [numSubphases]obs.Key{keySpread, keyCount1, keyLock, keyCount2}

// Extra keys read by the protocol.
const (
	// ExtraNPrime is the size estimate N' (default: the true N).
	ExtraNPrime = "nprime"
	// ExtraCPermille is the accuracy margin c in thousandths
	// (default 200, i.e. c = 0.2; the premise is |N'-N|/N <= 1/3-c).
	ExtraCPermille = "cpermille"
	// ExtraK overrides the sketch copy count (default KFor(N')).
	ExtraK = "K"
	// ExtraAlpha scales the SPREAD/LOCK subphase length alpha*(D'+w)
	// (default 4).
	ExtraAlpha = "alpha"
	// ExtraBeta scales the COUNT subphase length beta*k*(D'+w)
	// (default 2).
	ExtraBeta = "beta"
	// ExtraSkipStage1 disables the COUNT1 pre-lock majority check — the
	// ablation of the paper's "avoid excessive lock roll back" design
	// (Section 7). Any node whose id survives SPREAD then locks.
	ExtraSkipStage1 = "skipstage1"
	// ExtraOutputValue makes machines output the leader's Input value
	// instead of the leader's id — used by the consensus reduction.
	ExtraOutputValue = "outputvalue"
)

// Message type tags (3 bits).
const (
	msgMax uint64 = iota
	msgCount1
	msgLock
	msgCount2
	msgUnlock
	msgLeader
)

// Subphase indices within a phase.
const (
	subSpread = iota
	subCount1
	subLock
	subCount2
	numSubphases
)

// Protocol is the Section 7 LEADERELECT protocol.
type Protocol struct {
	// Obs, when non-nil, is shared by every machine the protocol builds
	// and receives the phase/lock state machine's events: PhaseEnter at
	// each subphase boundary, LockAcquire when a node takes a lock (its
	// own or a flooded one), LockRollback when a candidacy fails or an
	// unlock notice voids a held lock, and Custom "candidacy" /
	// "leader_declared" markers. Machines emit from their Step/Deliver
	// calls, which the engine makes from the goroutine that called Run,
	// so a single-goroutine sink is safe (see obs.Sink). A sink shared
	// by engines that run concurrently must be safe for concurrent use.
	Obs obs.Sink
}

// Name implements dynet.Protocol.
func (Protocol) Name() string { return "leader/section7" }

// NewMachine implements dynet.Protocol.
func (p Protocol) NewMachine(cfg dynet.Config) dynet.Machine {
	nPrime := int(cfg.ExtraInt(ExtraNPrime, int64(cfg.N)))
	c := float64(cfg.ExtraInt(ExtraCPermille, 200)) / 1000
	k := int(cfg.ExtraInt(ExtraK, int64(counting.KFor(nPrime))))
	m := &machine{
		cfg:         cfg,
		nPrime:      nPrime,
		tau:         counting.MajorityThreshold(nPrime, c),
		k:           k,
		alpha:       int(cfg.ExtraInt(ExtraAlpha, 4)),
		beta:        int(cfg.ExtraInt(ExtraBeta, 2)),
		w:           bitio.WidthFor(nPrime + 1),
		skipStage1:  cfg.ExtraInt(ExtraSkipStage1, 0) != 0,
		outputValue: cfg.ExtraInt(ExtraOutputValue, 0) != 0,
		coins:       cfg.Coins.Split('l', 'e'),
		maxID:       cfg.ID,
		maxVal:      cfg.Input,
		leaderID:    -1,
		lockID:      -1,
		lockPhase:   -1,
		unlocked:    make(map[int64]bool),
		obs:         p.Obs,
	}
	return m
}

type machine struct {
	cfg         dynet.Config
	nPrime      int
	tau         float64
	k           int
	alpha, beta int
	w           int
	skipStage1  bool
	outputValue bool
	coins       *rng.Source
	obs         obs.Sink     // nil unless the run is instrumented
	wr          bitio.Writer // encodes every payload this machine sends

	// Gossip state.
	maxID     int            // largest id seen
	maxVal    int64          // Input value of the largest-id node seen
	leaderID  int            // -1 until a leader announcement arrives
	leaderVal int64          // leader's input value
	lockID    int            // current lock holder id, -1 if unlocked
	lockPhase int            // phase stamp of the current lock
	pending   []lockKey      // unlock notices this node relays in SPREAD
	unlocked  map[int64]bool // lock keys known to be void

	// Phase-local state.
	curPhase    int
	sketch1     *counting.Sketch
	sketch2     *counting.Sketch
	isCandidate bool // survived COUNT1 this phase (or skipStage1)
	lockMsg     lockKey
	hasLockMsg  bool
	failures    int // cumulative failed candidacies (rolled-back locks)

	// Instrumentation (see Stats).
	candidacies   int
	locksAccepted int
	unlocksSeen   int
	decidedPhase  int
}

// lockKey identifies a lock attempt: candidate id + phase.
type lockKey struct {
	id    int
	phase int
}

func (k lockKey) encode() int64 { return int64(k.id)<<20 | int64(k.phase) }

func decodeLockKey(v int64) lockKey {
	return lockKey{id: int(v >> 20), phase: int(v & (1<<20 - 1))}
}

// emit reports one event when the machine is instrumented; with a nil sink
// it is a branch and a return, keeping the uninstrumented path free.
func (m *machine) emit(kind obs.Kind, r int, a, b int64, name obs.Key) {
	if m.obs != nil {
		m.obs.Emit(obs.Event{Kind: kind, Round: int32(r), Node: int32(m.cfg.ID), A: a, B: b, Name: name})
	}
}

// locate maps a 1-based round to (phase, subphase, index within subphase,
// first round of phase). Subphase lengths: SPREAD and LOCK take
// alpha*(2^p+w) rounds, COUNT1 and COUNT2 take beta*k*(2^p+w).
func (m *machine) locate(r int) (phase, sub, idx int) {
	r-- // zero-base
	for p := 0; ; p++ {
		dp := 1 << uint(p)
		ls := m.alpha * (dp + m.w)
		lc := m.beta * m.k * (dp + m.w)
		total := 2*ls + 2*lc
		if r < total {
			switch {
			case r < ls:
				return p, subSpread, r
			case r < ls+lc:
				return p, subCount1, r - ls
			case r < ls+lc+ls:
				return p, subLock, r - ls - lc
			default:
				return p, subCount2, r - ls - lc - ls
			}
		}
		r -= total
	}
}

func (m *machine) Step(r int) (dynet.Action, dynet.Message) {
	phase, sub, idx := m.locate(r)
	m.transition(r, phase, sub, idx)

	// A node that knows the leader floods the announcement every round,
	// unconditionally: always-send flooding terminates within D rounds
	// against any adversary.
	if m.leaderID >= 0 {
		return dynet.Send, m.encodeLeader()
	}

	switch sub {
	case subSpread:
		if !m.coins.Bool() {
			return dynet.Receive, dynet.Message{}
		}
		return dynet.Send, m.encodeSpread(idx)
	case subCount1:
		return m.stepCount(m.sketch1, msgCount1)
	case subLock:
		if m.isCandidate {
			// The candidate floods its lock unconditionally.
			return dynet.Send, m.encodeLock(msgLock, lockKey{m.cfg.ID, phase})
		}
		if m.hasLockMsg && m.coins.Bool() {
			return dynet.Send, m.encodeLock(msgLock, m.lockMsg)
		}
		return dynet.Receive, dynet.Message{}
	default: // subCount2
		return m.stepCount(m.sketch2, msgCount2)
	}
}

// transition runs the subphase-boundary logic (executed by every node at
// the first round of each subphase).
func (m *machine) transition(r, phase, sub, idx int) {
	if idx != 0 {
		return
	}
	m.emit(obs.KindPhaseEnter, r, int64(phase), int64(sub), subphaseKeys[sub])
	switch sub {
	case subSpread:
		// Evaluate the previous phase's COUNT2 before wiping it: the
		// candidate may have been sending in the final COUNT2 round,
		// and all deliveries for that round are complete by now.
		m.finishCount2(r)
		// New phase: reset phase-local state.
		m.curPhase = phase
		m.sketch1 = nil
		m.sketch2 = nil
		m.isCandidate = false
		m.hasLockMsg = false
	case subCount1:
		// Count supporters of the id each node currently believes is
		// the maximum.
		m.sketch1 = counting.NewSketch(m.k)
		m.sketch1.SetOwn(int64(m.maxID), nonce(phase, 1), m.cfg.Coins)
	case subLock:
		if m.leaderID >= 0 {
			return
		}
		if m.maxID == m.cfg.ID {
			if m.skipStage1 {
				m.isCandidate = true
			} else {
				// A node that was down at its COUNT1 transition has no
				// sketch: it counted no supporters, so it is no candidate.
				m.isCandidate = m.sketch1 != nil && m.sketch1.Estimate(int64(m.cfg.ID)) >= m.tau
			}
			if m.isCandidate {
				m.candidacies++
				m.emit(obs.KindCustom, r, int64(phase), 0, keyCandidacy)
			}
		}
		if m.isCandidate {
			// The candidate locks itself first.
			key := lockKey{m.cfg.ID, phase}
			if m.lockID == -1 {
				m.lockID, m.lockPhase = key.id, key.phase
				m.emit(obs.KindLockAcquire, r, int64(key.id), int64(key.phase), 0)
			}
			m.lockMsg, m.hasLockMsg = key, true
		}
	case subCount2:
		m.sketch2 = counting.NewSketch(m.k)
		if m.lockID >= 0 {
			key := lockKey{m.lockID, m.lockPhase}
			m.sketch2.SetOwn(key.encode(), nonce(phase, 2), m.cfg.Coins)
		}
	}
}

// finishCount2 evaluates the candidate's COUNT2 outcome for the phase that
// just ended: declare leadership on a majority of locks, otherwise schedule
// the rollback (flood unlock notices in future SPREADs).
func (m *machine) finishCount2(r int) {
	if !m.isCandidate || m.leaderID >= 0 || m.sketch2 == nil {
		return
	}
	key := lockKey{m.cfg.ID, m.curPhase}
	if m.sketch2.Estimate(key.encode()) >= m.tau {
		m.leaderID = m.cfg.ID
		m.leaderVal = m.cfg.Input
		m.decidedPhase = m.curPhase
		m.emit(obs.KindCustom, r, int64(m.curPhase), 0, keyLeader)
	} else {
		m.pending = append(m.pending, key)
		m.unlockBy(key)
		m.failures++
		m.emit(obs.KindLockRollback, r, int64(key.id), int64(key.phase), 0)
	}
}

func nonce(phase, stage int) uint64 { return uint64(phase)<<8 | uint64(stage) }

func (m *machine) unlockBy(key lockKey) {
	m.unlocked[key.encode()] = true
	if m.lockID == key.id && m.lockPhase == key.phase {
		m.lockID, m.lockPhase = -1, -1
	}
}

func (m *machine) stepCount(s *counting.Sketch, tag uint64) (dynet.Action, dynet.Message) {
	if s == nil || !m.coins.Bool() {
		return dynet.Receive, dynet.Message{}
	}
	value, copy, min, ok := s.PickRecord(m.coins)
	if !ok {
		return dynet.Receive, dynet.Message{}
	}
	w := &m.wr
	w.Next()
	w.WriteUint(tag, 3)
	counting.EncodeRecord(w, value, copy, min)
	return dynet.Send, dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *machine) encodeSpread(idx int) dynet.Message {
	// Rotate deterministically between the max-id payload and pending
	// unlock notices so both make progress.
	w := &m.wr
	w.Next()
	if len(m.pending) > 0 && idx%2 == 1 {
		key := m.pending[(idx/2)%len(m.pending)]
		w.WriteUint(msgUnlock, 3)
		w.WriteUvarint(uint64(key.encode()))
		return dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
	}
	w.WriteUint(msgMax, 3)
	w.WriteUvarint(uint64(m.maxID))
	w.WriteUvarint(uint64(m.maxVal))
	return dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *machine) encodeLock(tag uint64, key lockKey) dynet.Message {
	w := &m.wr
	w.Next()
	w.WriteUint(tag, 3)
	w.WriteUvarint(uint64(key.encode()))
	return dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *machine) encodeLeader() dynet.Message {
	w := &m.wr
	w.Next()
	w.WriteUint(msgLeader, 3)
	w.WriteUvarint(uint64(m.leaderID))
	w.WriteUvarint(uint64(m.leaderVal))
	return dynet.Message{Payload: w.Bytes(), NBits: w.Len()}
}

func (m *machine) Deliver(r int, msgs []dynet.Message) {
	for _, msg := range msgs {
		m.absorb(r, msg)
	}
}

func (m *machine) absorb(r int, msg dynet.Message) {
	rd := bitio.NewReader(msg.Payload, msg.NBits)
	tag, err := rd.ReadUint(3)
	if err != nil {
		return
	}
	switch tag {
	case msgMax:
		id, err1 := rd.ReadUvarint()
		val, err2 := rd.ReadUvarint()
		if err1 != nil || err2 != nil {
			return
		}
		if int(id) > m.maxID {
			m.maxID = int(id)
			m.maxVal = int64(val)
		}
	case msgCount1:
		value, copy, min, err := counting.DecodeRecord(rd)
		if err == nil && m.sketch1 != nil {
			m.sketch1.Merge(value, copy, min)
		}
	case msgCount2:
		value, copy, min, err := counting.DecodeRecord(rd)
		if err == nil && m.sketch2 != nil {
			m.sketch2.Merge(value, copy, min)
		}
	case msgLock:
		v, err := rd.ReadUvarint()
		if err != nil {
			return
		}
		key := decodeLockKey(int64(v))
		if m.unlocked[key.encode()] {
			return
		}
		if m.lockID == -1 {
			m.lockID, m.lockPhase = key.id, key.phase
			m.locksAccepted++
			m.emit(obs.KindLockAcquire, r, int64(key.id), int64(key.phase), 0)
		}
		if !m.hasLockMsg {
			m.lockMsg, m.hasLockMsg = key, true
		}
	case msgUnlock:
		v, err := rd.ReadUvarint()
		if err != nil {
			return
		}
		key := decodeLockKey(int64(v))
		if !m.unlocked[key.encode()] {
			held := m.lockID == key.id && m.lockPhase == key.phase
			m.unlockBy(key)
			m.pending = append(m.pending, key)
			m.unlocksSeen++
			if held {
				m.emit(obs.KindLockRollback, r, int64(key.id), int64(key.phase), 0)
			}
		}
	case msgLeader:
		id, err1 := rd.ReadUvarint()
		val, err2 := rd.ReadUvarint()
		if err1 != nil || err2 != nil {
			return
		}
		if m.leaderID < 0 {
			m.leaderID = int(id)
			m.leaderVal = int64(val)
		}
	}
}

func (m *machine) Output() (int64, bool) {
	if m.leaderID < 0 {
		return 0, false
	}
	if m.outputValue {
		return m.leaderVal, true
	}
	return int64(m.leaderID), true
}

// FailedCandidacies returns how many candidacies this machine declared and
// then rolled back — the quantity the two-stage-locking ablation measures.
func FailedCandidacies(mm dynet.Machine) int {
	m, ok := mm.(*machine)
	if !ok {
		return 0
	}
	return m.failures
}

// PendingUnlocks returns how many distinct unlock notices this machine has
// seen or originated (ablation metric: lock-rollback traffic).
func PendingUnlocks(mm dynet.Machine) int {
	m, ok := mm.(*machine)
	if !ok {
		return 0
	}
	return len(m.pending)
}

// Stats is the per-machine instrumentation of the phase protocol.
type Stats struct {
	// Phases is how many phases the machine entered (last phase + 1).
	Phases int
	// Candidacies counts the times this node proceeded to LOCK (passed
	// COUNT1, or unconditionally under the skip-stage-1 ablation).
	Candidacies int
	// Failures counts candidacies rolled back after COUNT2.
	Failures int
	// LocksAccepted counts locks this node accepted from others or
	// itself.
	LocksAccepted int
	// UnlocksSeen counts distinct rollback notices received.
	UnlocksSeen int
	// DecidedPhase is the phase in which this node declared itself
	// leader (0 when it learned the leader by announcement or is
	// undecided; check the machine's Output for decision state).
	DecidedPhase int
}

// MachineStats extracts Stats from a Section 7 machine; ok is false for
// foreign machine types.
func MachineStats(mm dynet.Machine) (Stats, bool) {
	m, ok := mm.(*machine)
	if !ok {
		return Stats{}, false
	}
	return Stats{
		Phases:        m.curPhase + 1,
		Candidacies:   m.candidacies,
		Failures:      m.failures,
		LocksAccepted: m.locksAccepted,
		UnlocksSeen:   m.unlocksSeen,
		DecidedPhase:  m.decidedPhase,
	}, true
}
