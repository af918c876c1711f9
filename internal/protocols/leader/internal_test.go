package leader

import (
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/rng"
)

// newTestMachine builds one machine with small, predictable schedule
// parameters for unit-level message tests.
func newTestMachine(t *testing.T, id, n int) *machine {
	t.Helper()
	m := Protocol{}.NewMachine(dynet.Config{
		N: n, ID: id, Input: int64(id % 2),
		Coins:  rng.New(7).Split(uint64(id) + 1),
		Budget: dynet.Budget(n),
		Extra:  map[string]int64{ExtraK: 4, ExtraAlpha: 1, ExtraBeta: 1},
	}).(*machine)
	return m
}

func TestAbsorbMaxUpdatesOnlyUpward(t *testing.T) {
	m := newTestMachine(t, 3, 16)
	m.absorb(1, m.encodeSpreadFor(9, 1))
	if m.maxID != 9 || m.maxVal != 1 {
		t.Fatalf("maxID=%d maxVal=%d, want 9, 1", m.maxID, m.maxVal)
	}
	m.absorb(1, m.encodeSpreadFor(5, 0)) // lower id: ignored
	if m.maxID != 9 || m.maxVal != 1 {
		t.Fatalf("lower id overwrote max: %d", m.maxID)
	}
}

// encodeSpreadFor builds a msgMax message for an arbitrary (id, val), for
// tests only.
func (m *machine) encodeSpreadFor(id int, val int64) dynet.Message {
	saveID, saveVal := m.maxID, m.maxVal
	m.maxID, m.maxVal = id, val
	msg := m.encodeSpread(0)
	m.maxID, m.maxVal = saveID, saveVal
	return msg
}

func TestAbsorbLockFirstWins(t *testing.T) {
	m := newTestMachine(t, 2, 16)
	m.absorb(1, m.encodeLock(msgLock, lockKey{7, 0}))
	if m.lockID != 7 || m.lockPhase != 0 {
		t.Fatalf("lock = (%d, %d), want (7, 0)", m.lockID, m.lockPhase)
	}
	m.absorb(1, m.encodeLock(msgLock, lockKey{9, 0})) // already locked: ignored
	if m.lockID != 7 {
		t.Fatalf("second lock overwrote the first: %d", m.lockID)
	}
}

func TestAbsorbUnlockReleasesAndRemembers(t *testing.T) {
	m := newTestMachine(t, 2, 16)
	key := lockKey{7, 3}
	m.absorb(1, m.encodeLock(msgLock, key))
	m.absorb(1, m.encodeLock(msgUnlock, key))
	if m.lockID != -1 {
		t.Fatalf("unlock did not release: lockID=%d", m.lockID)
	}
	if !m.unlocked[key.encode()] {
		t.Fatal("unlock not remembered")
	}
	// A lock bearing a voided key is rejected forever.
	m.absorb(1, m.encodeLock(msgLock, key))
	if m.lockID != -1 {
		t.Fatal("voided lock key re-acquired")
	}
	// But the same candidate with a fresh phase stamp may lock again.
	fresh := lockKey{7, 5}
	m.absorb(1, m.encodeLock(msgLock, fresh))
	if m.lockID != 7 || m.lockPhase != 5 {
		t.Fatalf("fresh-phase lock rejected: (%d, %d)", m.lockID, m.lockPhase)
	}
}

func TestStaleUnlockDoesNotVoidNewLock(t *testing.T) {
	m := newTestMachine(t, 2, 16)
	m.absorb(1, m.encodeLock(msgLock, lockKey{7, 5}))
	m.absorb(1, m.encodeLock(msgUnlock, lockKey{7, 3})) // stale phase
	if m.lockID != 7 || m.lockPhase != 5 {
		t.Fatalf("stale unlock released a newer lock: (%d, %d)", m.lockID, m.lockPhase)
	}
}

func TestAbsorbLeaderFirstAnnouncementWins(t *testing.T) {
	m := newTestMachine(t, 2, 16)
	m.leaderID, m.leaderVal = 9, 1
	msg := m.encodeLeader()
	m2 := newTestMachine(t, 3, 16)
	m2.absorb(1, msg)
	if m2.leaderID != 9 || m2.leaderVal != 1 {
		t.Fatalf("leader not adopted: (%d, %d)", m2.leaderID, m2.leaderVal)
	}
	// A conflicting later announcement is ignored (first wins).
	m.leaderID, m.leaderVal = 5, 0
	m2.absorb(1, m.encodeLeader())
	if m2.leaderID != 9 {
		t.Fatalf("later announcement overwrote leader: %d", m2.leaderID)
	}
}

func TestAbsorbTruncatedMessagesIgnored(t *testing.T) {
	m := newTestMachine(t, 1, 16)
	before := *m
	// 2-bit message: tag read fails.
	m.absorb(1, dynet.Message{Payload: []byte{0xFF}, NBits: 2})
	// Valid tag but truncated body.
	m.absorb(1, dynet.Message{Payload: []byte{0x00}, NBits: 3})
	if m.maxID != before.maxID || m.lockID != before.lockID || m.leaderID != before.leaderID {
		t.Fatal("truncated messages mutated state")
	}
}

func TestUnlockByClearsOwnLockOnly(t *testing.T) {
	m := newTestMachine(t, 2, 16)
	m.lockID, m.lockPhase = 7, 3
	m.unlockBy(lockKey{8, 3}) // different candidate
	if m.lockID != 7 {
		t.Fatal("unrelated unlock released the lock")
	}
	m.unlockBy(lockKey{7, 3})
	if m.lockID != -1 {
		t.Fatal("matching unlock did not release")
	}
}

func TestSpreadRotationCarriesUnlocks(t *testing.T) {
	m := newTestMachine(t, 2, 16)
	m.pending = []lockKey{{4, 1}}
	sawUnlock, sawMax := false, false
	for idx := 0; idx < 6; idx++ {
		msg := m.encodeSpread(idx)
		m2 := newTestMachine(t, 3, 16)
		m2.absorb(1, msg)
		if m2.unlocked[(lockKey{4, 1}).encode()] {
			sawUnlock = true
		} else {
			sawMax = true
		}
	}
	if !sawUnlock || !sawMax {
		t.Fatalf("rotation incomplete: unlock=%v max=%v", sawUnlock, sawMax)
	}
}

// TestSteadyStateRoundAllocs pins the message path's per-round cost inside
// a subphase: a round of Step on every machine and Deliver of the senders'
// messages to every receiver allocates nothing but the payload chunks
// bitio.Writer.Next shares among dozens of messages, well under one per
// round, which AllocsPerRun's whole-number average reports as 0. Not
// parallel: AllocsPerRun reads process-wide counts.
func TestSteadyStateRoundAllocs(t *testing.T) {
	const n = 16
	ms := dynet.NewMachines(Protocol{}, n, nil, 3, nil)
	sent := make([]dynet.Message, 0, n)
	recv := make([]dynet.Machine, 0, n)
	r := 0
	round := func() {
		r++
		sent, recv = sent[:0], recv[:0]
		for _, m := range ms {
			if act, msg := m.Step(r); act == dynet.Send {
				sent = append(sent, msg)
			} else {
				recv = append(recv, m)
			}
		}
		for _, m := range recv {
			m.Deliver(r, sent)
		}
	}
	m0 := ms[0].(*machine)
	for {
		round()
		if _, sub, idx := m0.locate(r + 1); sub == subCount1 && idx == 10 {
			break
		}
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("steady-state round allocates %v, want 0", avg)
	}
	if _, sub, _ := m0.locate(r); sub != subCount1 {
		t.Fatalf("round %d left COUNT1: the measurement crossed a subphase boundary", r)
	}
}
