package dynet

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dyndiam/internal/graph"
	"dyndiam/internal/rng"
)

func recordedTrace(t testing.TB, keepTopologies bool) (*Trace, int) {
	t.Helper()
	const n = 10
	return runTrace(t, Static(graph.Ring(n)), n, keepTopologies), n
}

// runTrace records a relay execution of up to 60 rounds over adv.
func runTrace(t testing.TB, adv Adversary, n int, keepTopologies bool) *Trace {
	t.Helper()
	ms := NewMachines(relayProtocol{}, n, tokenInputs(n, 0), 3, nil)
	tr := &Trace{KeepTopologies: keepTopologies}
	e := &Engine{Machines: ms, Adv: adv, Trace: tr}
	if _, err := e.Run(60); err != nil {
		t.Fatal(err)
	}
	return tr
}

// randomAdversary presents an independent random connected graph with
// extra edges beyond a spanning tree every round: full churn.
func randomAdversary(n, extra int, seed uint64) Adversary {
	src := rng.New(seed)
	return AdversaryFunc(func(r int, _ []Action) *graph.Graph {
		return graph.RandomConnected(n, extra, src.Split(uint64(r)))
	})
}

func encodeTrace(t testing.TB, tr *Trace, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1SelfLoopTrace is a DYTR v1 file whose one round holds the edge
// (1, 1). The v1 decoder panicked on it inside graph.AddEdge.
func v1SelfLoopTrace() []byte {
	le := binary.LittleEndian
	b := le.AppendUint16([]byte("DYTR"), 1)
	b = le.AppendUint16(b, 1)
	b = le.AppendUint32(b, 3)
	b = le.AppendUint32(b, 1)
	for _, v := range []uint32{1, 0, 0, 0, 1, 1, 1, 1} { // round, senders, bits (2 words), edges, edgeCount, u, v
		b = le.AppendUint32(b, v)
	}
	return b
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
	ta, tb := tr.Topologies(), got.Topologies()
	for i := range tr.Stats {
		a, b := tr.Stats[i], got.Stats[i]
		if a.Round != b.Round || a.Senders != b.Senders || a.Bits != b.Bits || a.Edges != b.Edges {
			t.Fatalf("round %d stats differ: %+v vs %+v", a.Round, a, b)
		}
		for _, e := range ta[i].Edges() {
			if !tb[i].HasEdge(e[0], e[1]) {
				t.Fatalf("round %d: edge %v lost", a.Round, e)
			}
		}
		if ta[i].M() != tb[i].M() {
			t.Fatalf("round %d: edge count %d vs %d", a.Round, ta[i].M(), tb[i].M())
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

// TestTraceRoundTripSchedule: the decoded trace carries the recorded
// Schedule itself and re-encodes to the same bytes, for a static and a
// full-churn run.
func TestTraceRoundTripSchedule(t *testing.T) {
	const n = 24
	for name, adv := range map[string]Adversary{"ring": Static(graph.Ring(n)), "random": randomAdversary(n, 10, 7)} {
		tr := runTrace(t, adv, n, true)
		raw := encodeTrace(t, tr, n)
		got, _, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Schedule, tr.Schedule) {
			t.Fatalf("%s: schedule changed across the round trip", name)
		}
		if again := encodeTrace(t, got, n); !bytes.Equal(again, raw) {
			t.Fatalf("%s: re-encoding changed %d bytes to %d", name, len(raw), len(again))
		}
	}
}

// TestTraceFileNoLargerThanV1: a v2 file never outgrows the v1 layout,
// which spent 4 bytes per round plus 8 per edge per round on topologies,
// even under full churn.
func TestTraceFileNoLargerThanV1(t *testing.T) {
	const n = 64
	for name, adv := range map[string]Adversary{"ring": Static(graph.Ring(n)), "random": randomAdversary(n, 2*n, 3)} {
		tr := runTrace(t, adv, n, true)
		v1 := 16
		for _, st := range tr.Stats {
			v1 += 20 + 4 + 8*st.Edges
		}
		if v2 := len(encodeTrace(t, tr, n)); v2 > v1 {
			t.Errorf("%s: v2 file is %d bytes, v1 was %d", name, v2, v1)
		}
	}
}

// TestReadTraceRejectsMalformedTopology: every structural fault returns
// an error — the v1 self-loop file, an op beyond the node count, a
// non-minimal varint, trailing bytes — and no header count sizes an
// allocation before its bytes arrive.
func TestReadTraceRejectsMalformedTopology(t *testing.T) {
	one := &Trace{KeepTopologies: true, Stats: []RoundStats{{Round: 1, Edges: 4}},
		Schedule: FromGraphs([]*graph.Graph{graph.Ring(4)})}
	raw := encodeTrace(t, one, 4)
	const statsEnd = 16 + 20
	cases := map[string][]byte{
		"v1 self-loop":      v1SelfLoopTrace(),
		"op out of range":   append(append([]byte{}, raw[:statsEnd]...), 1, 0, 8<<1), // base op (0, 9) over 4 nodes
		"non-minimal count": append(append([]byte{}, raw[:statsEnd]...), 0x84, 0x00),
		"trailing bytes":    append(append([]byte{}, raw...), 0),
		"huge header":       []byte("DYTR\x02\x00\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff"),
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadTrace(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		t.Logf("%s: %v", name, err)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", name, grew)
		}
	}
}

// FuzzReadTrace: for any input the decoder returns an error or a trace
// that re-encodes to exactly the input bytes; it never panics.
func FuzzReadTrace(f *testing.F) {
	f.Add(encodeTrace(f, runTrace(f, Static(graph.Ring(8)), 8, true), 8))
	f.Add(encodeTrace(f, runTrace(f, randomAdversary(8, 4, 1), 8, true), 8))
	f.Add(encodeTrace(f, runTrace(f, Static(graph.Ring(8)), 8, false), 8))
	f.Add(v1SelfLoopTrace())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, n, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr, n); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("re-encoding changed the bytes:\n%x\n%x", data, buf.Bytes())
		}
	})
}

// TestTraceTopologiesAreIndependent: Topologies builds fresh graphs from
// the recorded Schedule, so mutating one changes neither the recording
// nor a later call's graphs.
func TestTraceTopologiesAreIndependent(t *testing.T) {
	tr, _ := recordedTrace(t, true)
	first := tr.Topologies()
	first[0].RemoveEdge(0, 1)
	first[1].AddEdge(0, 5)
	for i, g := range tr.Topologies() {
		if g.M() != 10 || !g.HasEdge(0, 1) || g.HasEdge(0, 5) {
			t.Fatalf("round %d: recorded topology changed through a returned graph", i+1)
		}
	}
}
