package dynet

import (
	"bytes"
	"strings"
	"testing"

	"dyndiam/internal/graph"
)

func recordedTrace(t *testing.T, keepTopologies bool) (*Trace, int) {
	t.Helper()
	const n = 10
	ms := NewMachines(relayProtocol{}, n, tokenInputs(n, 0), 3, nil)
	tr := &Trace{KeepTopologies: keepTopologies}
	e := &Engine{Machines: ms, Adv: Static(graph.Ring(n)), Trace: tr}
	if _, err := e.Run(60); err != nil {
		t.Fatal(err)
	}
	return tr, n
}

func TestTraceRoundTripWithTopologies(t *testing.T) {
	tr, n := recordedTrace(t, true)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, n); err != nil {
		t.Fatal(err)
	}
	got, gotN, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != n || len(got.Stats) != len(tr.Stats) {
		t.Fatalf("n=%d rounds=%d, want %d, %d", gotN, len(got.Stats), n, len(tr.Stats))
	}
	for i := range tr.Stats {
		a, b := tr.Stats[i], got.Stats[i]
		if a.Round != b.Round || a.Senders != b.Senders || a.Bits != b.Bits || a.Edges != b.Edges {
			t.Fatalf("round %d stats differ: %+v vs %+v", a.Round, a, b)
		}
		for _, e := range a.Topology.Edges() {
			if !b.Topology.HasEdge(e[0], e[1]) {
				t.Fatalf("round %d: edge %v lost", a.Round, e)
			}
		}
		if a.Topology.M() != b.Topology.M() {
			t.Fatalf("round %d: edge count %d vs %d", a.Round, a.Topology.M(), b.Topology.M())
		}
	}
	// The reread topologies support the same diameter computation.
	d1, ok1 := DynamicDiameter(tr.Topologies())
	d2, ok2 := DynamicDiameter(got.Topologies())
	if d1 != d2 || ok1 != ok2 {
		t.Fatalf("diameters differ after round trip: (%d,%v) vs (%d,%v)", d1, ok1, d2, ok2)
	}
}

func TestTraceRoundTripStatsOnly(t *testing.T) {
	tr, n := recordedTrace(t, false)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, n); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.KeepTopologies {
		t.Error("stats-only trace flagged with topologies")
	}
	if len(got.Stats) != len(tr.Stats) {
		t.Fatalf("round counts differ")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, _, err := ReadTrace(strings.NewReader("NOPE....")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := ReadTrace(strings.NewReader("DY")); err == nil {
		t.Error("truncated magic accepted")
	}
	// Valid magic, truncated header.
	if _, _, err := ReadTrace(strings.NewReader("DYTR\x01\x00")); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestReadTraceRejectsOutOfRangeEdge(t *testing.T) {
	tr, n := recordedTrace(t, true)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, n); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the node count down to 1 so all edges go out of range.
	copy(raw[8:12], []byte{1, 0, 0, 0})
	if _, _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Error("out-of-range edges accepted")
	}
}
