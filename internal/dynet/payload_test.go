package dynet_test

import (
	"bytes"
	"testing"

	"dyndiam/internal/adversaries"
	"dyndiam/internal/dynet"
	"dyndiam/internal/faults"
	"dyndiam/internal/obs"
	"dyndiam/internal/protocols/flood"
	"dyndiam/internal/protocols/leader"
)

// payloadLog keeps every payload slice a run hands around, next to a
// private copy taken when the slice was first seen.
type payloadLog struct{ held, snap [][]byte }

func (l *payloadLog) keep(p []byte) {
	l.held = append(l.held, p)
	l.snap = append(l.snap, bytes.Clone(p))
}

// snapshotMachine logs the payload of every message its machine sends and
// every message delivered to it. Wrapping also hides a machine's
// BitFlooder, so CFLOOD runs on the message path.
type snapshotMachine struct {
	dynet.Machine
	log *payloadLog
}

func (m snapshotMachine) Step(r int) (dynet.Action, dynet.Message) {
	act, msg := m.Machine.Step(r)
	if act == dynet.Send {
		m.log.keep(msg.Payload)
	}
	return act, msg
}

func (m snapshotMachine) Deliver(r int, msgs []dynet.Message) {
	for _, msg := range msgs {
		m.log.keep(msg.Payload)
	}
	m.Machine.Deliver(r, msgs)
}

// TestPayloadsImmutable pins dynet.Message's payload rule end to end: no
// payload a machine returns from Step, nor any copy the engine delivers,
// changes for the rest of the run, even under drops, duplicates and
// corruption. twoparty.Run keeps delivered payloads without copying
// their bytes and depends on this.
func TestPayloadsImmutable(t *testing.T) {
	const n, seed = 24, 5
	for _, tc := range []struct {
		name  string
		proto dynet.Protocol
		extra map[string]int64
	}{
		{"leader", leader.Protocol{}, nil},
		{"cflood", flood.CFlood{}, map[string]int64{flood.ExtraD: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inputs := make([]int64, n)
			for v := range inputs {
				inputs[v] = int64(v * 7)
			}
			var log payloadLog
			ms := dynet.NewMachines(tc.proto, n, inputs, seed, tc.extra)
			for v, m := range ms {
				ms[v] = snapshotMachine{m, &log}
			}
			plan, err := faults.NewPlan(faults.Spec{Seed: 9, Drop: 0.1, Dup: 0.1, Corrupt: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			e := &dynet.Engine{
				Machines: ms,
				Adv:      adversaries.BoundedDiameter(n, 3, n/2, seed),
				Plan:     plan,
				Metrics:  reg,
				// Run every round, past the protocol's own termination.
				Terminated: func([]dynet.Machine) bool { return false },
			}
			if _, err := e.Run(150); err != nil {
				t.Fatal(err)
			}
			for _, c := range []string{"faults_dropped_total", "faults_duplicated_total", "faults_corrupted_total"} {
				if reg.Counter(c).Value() == 0 {
					t.Fatalf("%s = 0: the run exercised no such fault", c)
				}
			}
			if len(log.held) < 1000 {
				t.Fatalf("only %d payloads seen", len(log.held))
			}
			for i, p := range log.held {
				if !bytes.Equal(p, log.snap[i]) {
					t.Fatalf("payload %d of %d changed after it was handed out: %x, was %x", i, len(log.held), p, log.snap[i])
				}
			}
		})
	}
}
