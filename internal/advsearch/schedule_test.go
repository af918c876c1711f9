package advsearch

import (
	"encoding/json"
	"reflect"
	"testing"

	"dyndiam/internal/dynet"
	"dyndiam/internal/graph"
	"dyndiam/internal/harness"
	"dyndiam/internal/rng"
)

// TestScheduleCanonicalFixpoint pins the canonical form: materializing a
// schedule and re-deriving it lands on the identical value (and JSON
// bytes), which is what makes "byte-identical best schedule" a real
// contract rather than a representation accident.
func TestScheduleCanonicalFixpoint(t *testing.T) {
	s := RandomSchedule(9, 7, 4, rng.New(3))
	if err := s.Validate(); err != nil {
		t.Fatalf("random schedule invalid: %v", err)
	}
	again := dynet.FromGraphs(s.Graphs())
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("canonicalization not a fixpoint:\n%+v\n%+v", s, again)
	}
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Schedule
	if err := json.Unmarshal(b1, &decoded); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("JSON round-trip changed bytes:\n%s\n%s", b1, b2)
	}
}

// TestScheduleAdversaryPatterns holds the adapter to the DeltaAdversary
// contract: the Topology-every-round pattern and the Topology(1)+Diff
// pattern must produce identical topology sequences, including the
// hold-last extension beyond the scripted rounds.
func TestScheduleAdversaryPatterns(t *testing.T) {
	s := RandomSchedule(8, 5, 3, rng.New(11))
	horizon := s.Rounds + 4

	topo := s.Adversary()
	var full []string
	for r := 1; r <= horizon; r++ {
		full = append(full, dumpGraph(topo.Topology(r, nil)))
	}

	delta := s.Adversary()
	g := delta.Topology(1, nil).Clone()
	if got := dumpGraph(g); got != full[0] {
		t.Fatalf("round 1 differs between patterns:\n%s\n%s", got, full[0])
	}
	var d dynet.EdgeDiff
	for r := 2; r <= horizon; r++ {
		d.Reset()
		delta.Diff(r, nil, &d)
		d.Apply(g)
		if got := dumpGraph(g); got != full[r-1] {
			t.Fatalf("round %d differs between patterns:\n%s\n%s", r, got, full[r-1])
		}
		if r > s.Rounds && d.Len() != 0 {
			t.Fatalf("round %d beyond the script emitted %d ops; hold-last means empty diffs", r, d.Len())
		}
	}
}

func dumpGraph(g interface{ Edges() [][2]int }) string {
	b, _ := json.Marshal(g.Edges())
	return string(b)
}

func TestValidateRejects(t *testing.T) {
	base := RandomSchedule(6, 3, 2, rng.New(5))
	cases := []struct {
		name string
		warp func(s *Schedule)
	}{
		{"too few nodes", func(s *Schedule) { s.N = 1 }},
		{"zero rounds", func(s *Schedule) { s.Rounds = 0 }},
		{"diff count mismatch", func(s *Schedule) { s.Diffs = s.Diffs[:1] }},
		{"op out of range", func(s *Schedule) { s.Base[0].U = 99 }},
		{"self-loop op", func(s *Schedule) { s.Base[0].V = s.Base[0].U }},
		{"disconnected round", func(s *Schedule) {
			s.Base = []dynet.EdgeOp{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			s.Base = append([]dynet.EdgeOp(nil), base.Base...)
			s.Diffs = append([][]dynet.EdgeOp(nil), base.Diffs...)
			tc.warp(&s)
			if err := s.Validate(); err == nil {
				t.Fatalf("Validate accepted a %s schedule", tc.name)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline schedule invalid: %v", err)
	}
}

// TestConstructedDiameters pins the baselines to the paper's facts: the
// rotating star has dynamic diameter n-1 despite per-round diameter 2,
// and the static clique has dynamic diameter 1.
func TestConstructedDiameters(t *testing.T) {
	n := 8
	star := Constructed(ProtoCFloodKnown, n, 2*n)
	if err := star.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err := harness.MeasureDynamicDiameter(star.Adversary(), n, star.Rounds+n+2)
	if err != nil {
		t.Fatal(err)
	}
	if d != n-1 {
		t.Fatalf("rotating star dynamic diameter = %d, want %d", d, n-1)
	}
	clique := Constructed(ProtoCFloodUnknown, n, 2*n)
	if err := clique.Validate(); err != nil {
		t.Fatal(err)
	}
	d, err = harness.MeasureDynamicDiameter(clique.Adversary(), n, clique.Rounds+n+2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("clique dynamic diameter = %d, want 1", d)
	}
}

// TestMutatePreservesInvariants drives the mutation operator hard and
// checks every accepted move yields a valid (connected-every-round)
// canonical schedule.
func TestMutatePreservesInvariants(t *testing.T) {
	src := rng.New(17)
	s := RandomSchedule(7, 4, 1, src.Split('i'))
	accepted := 0
	for k := 0; k < 200; k++ {
		m, ok := mutate(s, src.Split('m', uint64(k)))
		if !ok {
			continue
		}
		accepted++
		if err := m.Validate(); err != nil {
			t.Fatalf("mutation %d produced invalid schedule: %v", k, err)
		}
		if got := dynet.FromGraphs(m.Graphs()); !reflect.DeepEqual(m, got) {
			t.Fatalf("mutation %d produced non-canonical schedule", k)
		}
		s = m
	}
	if accepted < 100 {
		t.Fatalf("only %d/200 mutations accepted; operator too weak", accepted)
	}
}

// TestMutateFallsBackToFirstAbsentPair: on a two-round path 0-1-2-3 with
// source seed 2, all eight random attempts fail (adds hit an edge or a
// loop, deletes disconnect the path, rewires stay disconnected). mutate
// then adds the first absent pair, (0, 2), to the round drawn from
// Split(8); on a schedule of complete rounds it has nothing to add.
func TestMutateFallsBackToFirstAbsentPair(t *testing.T) {
	path := graph.New(4)
	path.AddEdge(0, 1)
	path.AddEdge(1, 2)
	path.AddEdge(2, 3)
	s := dynet.FromGraphs([]*graph.Graph{path, path.Clone()})
	src := rng.New(2)
	m, ok := mutate(s, src)
	if !ok {
		t.Fatal("mutate failed on a schedule with absent pairs")
	}
	want := s.Graphs()
	want[src.Split(8).Intn(len(want))].AddEdge(0, 2)
	if !reflect.DeepEqual(m, dynet.FromGraphs(want)) {
		t.Fatalf("mutate = %+v, want %+v", m, dynet.FromGraphs(want))
	}

	// Every round of a two-node schedule is complete: no add, delete or
	// rewire keeps it connected and simple.
	edge := graph.New(2)
	edge.AddEdge(0, 1)
	full := dynet.FromGraphs([]*graph.Graph{edge, edge.Clone()})
	for seed := uint64(0); seed < 16; seed++ {
		if m, ok := mutate(full, rng.New(seed)); ok {
			t.Fatalf("seed %d: mutate moved a schedule of complete rounds to %+v", seed, m)
		}
	}
}
