package advsearch

import (
	"encoding/json"
	"reflect"
	"testing"

	"dyndiam/internal/harness"
	"dyndiam/internal/obs"
	"dyndiam/internal/rng"
)

func testConfig(proto Proto, mode Mode) Config {
	return Config{
		Proto: proto, N: 8, Horizon: 10, Mode: mode,
		Restarts: 3, Steps: 4, Seed: 7, EvalBudget: 100_000, Top: 3,
	}
}

func reportBytes(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSearchWorkersGolden is the acceptance golden: for every mode and a
// protocol spread, Sweep.Workers 1 and 8 produce byte-identical reports
// and hardness tables.
func TestSearchWorkersGolden(t *testing.T) {
	cases := []struct {
		proto Proto
		mode  Mode
	}{
		{ProtoCFloodKnown, ModeGreedy},
		{ProtoCFloodUnknown, ModeRandom},
		{ProtoConsensus, ModeGreedy},
		{ProtoLeader, ModeEvolve},
	}
	for _, tc := range cases {
		t.Run(string(tc.proto)+"/"+string(tc.mode), func(t *testing.T) {
			cfg := testConfig(tc.proto, tc.mode)
			seq, err := Search(cfg, nil, Options{Sweep: harness.Sweep{Workers: 1}})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Search(cfg, nil, Options{Sweep: harness.Sweep{Workers: 8}})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := reportBytes(t, seq), reportBytes(t, par); a != b {
				t.Fatalf("Workers 1 vs 8 reports differ:\n%s\n%s", a, b)
			}
			ta := FormatHardnessTable([]HardnessRow{RowFromReport(seq)}).String()
			tb := FormatHardnessTable([]HardnessRow{RowFromReport(par)}).String()
			if ta != tb {
				t.Fatalf("Workers 1 vs 8 tables differ:\n%s\n%s", ta, tb)
			}
		})
	}
}

// TestSearchResumeEquivalent checkpoints a search after its first
// progress callback, round-trips the state through JSON, resumes, and
// requires the byte-identical report.
func TestSearchResumeEquivalent(t *testing.T) {
	for _, mode := range []Mode{ModeGreedy, ModeEvolve} {
		t.Run(string(mode), func(t *testing.T) {
			cfg := testConfig(ProtoCFloodKnown, mode)
			sw := harness.Sweep{Workers: 2}

			full, err := Search(cfg, nil, Options{Sweep: sw})
			if err != nil {
				t.Fatal(err)
			}

			var snapshot []byte
			_, err = Search(cfg, nil, Options{Sweep: sw, OnProgress: func(st *State) error {
				if snapshot == nil {
					b, err := json.Marshal(st)
					if err != nil {
						return err
					}
					snapshot = b
				}
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			if snapshot == nil {
				t.Fatal("OnProgress never ran")
			}

			var st State
			if err := json.Unmarshal(snapshot, &st); err != nil {
				t.Fatal(err)
			}
			resumed, err := Search(cfg, &st, Options{Sweep: sw})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := reportBytes(t, full), reportBytes(t, resumed); a != b {
				t.Fatalf("resumed report differs from uninterrupted run:\n%s\n%s", a, b)
			}
		})
	}
}

// TestSearchRejectsForeignCheckpoint: resuming under a different config
// must fail instead of silently mixing runs.
func TestSearchRejectsForeignCheckpoint(t *testing.T) {
	cfg := testConfig(ProtoCFloodKnown, ModeGreedy)
	key, err := cfg.Key()
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 99
	if _, err := Search(other, &State{Key: key}, Options{}); err == nil {
		t.Fatal("Search accepted a checkpoint from a different config")
	}
}

// TestSearchOrderIndependence is the satellite-1 property test: the
// argmax over a candidate set must not depend on the order candidates
// are evaluated or folded. It evaluates a pool of unit-seeded schedules
// forward and backward (identical hardness either way — seed derivation
// is index-addressed, never order-addressed), then folds the selection
// under rng-driven permutations and requires the identical best
// schedule every time.
func TestSearchOrderIndependence(t *testing.T) {
	cfg, err := testConfig(ProtoLeader, ModeGreedy).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(cfg.Seed)
	const k = 12
	scheds := make([]Schedule, k)
	for i := range scheds {
		scheds[i] = RandomSchedule(cfg.N, cfg.Horizon, cfg.ExtraEdges, root.Split('u', uint64(i), 's', 0))
	}

	evalAll := func(order []int) []Candidate {
		out := make([]Candidate, k)
		for _, i := range order {
			h, err := Evaluate(cfg.Proto, scheds[i], cfg.EvalSeed, cfg.EvalBudget, nil)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = Candidate{Origin: "pool", Seq: 1 + i, Schedule: scheds[i], Hardness: h, Score: h.ScoreFor(cfg.Proto)}
		}
		return out
	}
	forward := make([]int, k)
	backward := make([]int, k)
	for i := range forward {
		forward[i] = i
		backward[i] = k - 1 - i
	}
	pool := evalAll(forward)
	rev := evalAll(backward)
	if !reflect.DeepEqual(pool, rev) {
		t.Fatal("evaluation order changed per-candidate hardness")
	}

	pick := func(cs []Candidate) Candidate {
		best := cs[0]
		for _, c := range cs[1:] {
			if better(c, best) {
				best = c
			}
		}
		return best
	}
	want := pick(pool)
	wantSig, _ := json.Marshal(want.Schedule)
	perm := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		shuffled := make([]Candidate, 0, k)
		for _, i := range perm.Split(uint64(trial)).Perm(k) {
			shuffled = append(shuffled, pool[i])
		}
		got := pick(shuffled)
		gotSig, _ := json.Marshal(got.Schedule)
		if got.Seq != want.Seq || string(gotSig) != string(wantSig) {
			t.Fatalf("permutation %d selected candidate %d, want %d", trial, got.Seq, want.Seq)
		}
	}
}

// TestZeroBudgetEqualsConstructed pins the CI gate: a search with zero
// restarts evaluates only the paper construction and reports exactly
// its hardness.
func TestZeroBudgetEqualsConstructed(t *testing.T) {
	for _, proto := range Protocols() {
		cfg := testConfig(proto, ModeGreedy)
		cfg.Restarts = 0
		rep, err := Search(cfg, nil, Options{})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !reflect.DeepEqual(rep.Best, rep.Constructed) {
			t.Fatalf("%s: zero-budget best %+v is not the constructed baseline %+v", proto, rep.Best, rep.Constructed)
		}
		if rep.Best.Origin != "constructed" || len(rep.Top) != 0 || rep.Evaluated != 0 {
			t.Fatalf("%s: zero-budget report carries search residue: %+v", proto, rep)
		}
	}
}

type sliceSink struct{ events []obs.Event }

func (s *sliceSink) Emit(e obs.Event) { s.events = append(s.events, e) }

// TestSearchObservability: the candidates-evaluated and improvements
// counters, the best-score gauge, and one span per completed unit — all
// deterministic across workers.
func TestSearchObservability(t *testing.T) {
	cfg := testConfig(ProtoLeader, ModeGreedy)
	collect := func(workers int) ([]obs.MetricPoint, []obs.Event, *Report) {
		reg := obs.NewRegistry()
		sink := &sliceSink{}
		rep, err := Search(cfg, nil, Options{Sweep: harness.Sweep{Workers: workers}, Metrics: reg, Obs: sink})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot(), sink.events, rep
	}
	snap1, events1, rep := collect(1)
	snap8, events8, _ := collect(8)
	if !reflect.DeepEqual(snap1, snap8) {
		t.Fatalf("metric snapshots differ across workers:\n%v\n%v", snap1, snap8)
	}
	if !reflect.DeepEqual(events1, events8) {
		t.Fatalf("span streams differ across workers:\n%v\n%v", events1, events8)
	}

	reg := obs.NewRegistry()
	sink := &sliceSink{}
	if _, err := Search(cfg, nil, Options{Sweep: harness.Sweep{Workers: 1}, Metrics: reg, Obs: sink}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("advsearch_candidates_total").Value(); got != int64(rep.Evaluated) {
		t.Fatalf("advsearch_candidates_total = %d, want %d", got, rep.Evaluated)
	}
	if got := reg.Counter("advsearch_improvements_total").Value(); got != int64(rep.Improvements) {
		t.Fatalf("advsearch_improvements_total = %d, want %d", got, rep.Improvements)
	}
	if got := reg.Gauge("advsearch_best_score").Value(); got != rep.Best.Score {
		t.Fatalf("advsearch_best_score = %d, want %d", got, rep.Best.Score)
	}
	if want := 2 * cfg.Restarts; len(sink.events) != want {
		t.Fatalf("got %d span events, want %d (one begin/end pair per unit)", len(sink.events), want)
	}
}

// TestSearchFindsLeaderHeadroom pins the headline discovery: greedy
// search beats the rotating-star construction on leader election (the
// protocol's doubling guesses interact with the schedule far more
// richly than plain flooding does).
func TestSearchFindsLeaderHeadroom(t *testing.T) {
	cfg := testConfig(ProtoLeader, ModeGreedy)
	rep, err := Search(cfg, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best.Score <= rep.Constructed.Score {
		t.Fatalf("search found nothing beyond the construction: best %d <= constructed %d", rep.Best.Score, rep.Constructed.Score)
	}
	if len(rep.Top) == 0 {
		t.Fatal("no discoveries retained")
	}
	for _, c := range rep.Top {
		if err := c.Schedule.Validate(); err != nil {
			t.Fatalf("retained discovery invalid: %v", err)
		}
	}
}
