package advsearch

import (
	"encoding/json"
	"fmt"
	"sort"

	"dyndiam/internal/graph"
	"dyndiam/internal/harness"
	"dyndiam/internal/obs"
	"dyndiam/internal/rng"
)

// Mode selects the search strategy.
type Mode string

// The search strategies. All three draw every coin from the config seed
// through index-addressed rng splits, so results never depend on
// evaluation order or concurrency.
const (
	// ModeRandom evaluates independent random schedules (pure restarts).
	ModeRandom Mode = "random"
	// ModeGreedy runs strictly-improving edge-rewire local search from a
	// random start, one hill-climb chain per restart.
	ModeGreedy Mode = "greedy"
	// ModeEvolve runs a small evolutionary loop: mutation + crossover
	// over the population's EdgeDiff scripts, truncation selection.
	ModeEvolve Mode = "evolve"
)

// Config parameterizes one search run. The zero value of every field
// has a sensible default (see Normalize); the normalized Config is what
// gets hashed into the checkpoint key, so two runs that normalize
// equally share checkpoints.
type Config struct {
	// Proto is the protocol objective (see Protocols).
	Proto Proto `json:"proto"`
	// N is the network size.
	N int `json:"n"`
	// Horizon is the scripted schedule length in rounds; beyond it the
	// last topology holds (default 2N).
	Horizon int `json:"horizon"`
	// Mode is the strategy (default greedy).
	Mode Mode `json:"mode"`
	// Restarts is the number of independent restarts (random/greedy) or
	// the population size (evolve, unless Pop overrides). Zero restarts
	// is the "zero-budget" search: only the paper construction is
	// evaluated, which CI uses to pin discovered == constructed.
	Restarts int `json:"restarts"`
	// Steps is the hill-climb length per restart (greedy), extra samples
	// per restart (random), or generation count (evolve).
	Steps int `json:"steps"`
	// Pop is the evolve population size (default max(Restarts, 4)).
	Pop int `json:"pop,omitempty"`
	// ExtraEdges shapes initial random schedules: edges beyond a
	// spanning tree per round (default N/2).
	ExtraEdges int `json:"extra_edges"`
	// Seed roots all search randomness (restarts, mutations,
	// crossovers); default 1.
	Seed uint64 `json:"seed"`
	// EvalSeed roots the protocol coins. It is shared by every candidate
	// of the run — same coin tape, fair comparison — and defaults to
	// Seed^0x9e3779b97f4a7c15.
	EvalSeed uint64 `json:"eval_seed"`
	// EvalBudget caps rounds of the open-ended protocols per evaluation
	// (default 200000).
	EvalBudget int `json:"eval_budget"`
	// Top is how many distinct best discoveries the report retains
	// (default 3).
	Top int `json:"top"`
}

// Normalize applies defaults and validates. The result is the canonical
// config: Key and checkpoint compatibility are defined over it.
func (c Config) Normalize() (Config, error) {
	if _, err := ParseProto(string(c.Proto)); err != nil {
		return c, err
	}
	if c.N == 0 {
		c.N = 12
	}
	if c.N < 4 || c.N > 128 {
		return c, fmt.Errorf("advsearch: network size %d out of range [4, 128]", c.N)
	}
	if c.Horizon == 0 {
		c.Horizon = 2 * c.N
	}
	if c.Horizon < 1 || c.Horizon > 8*c.N {
		return c, fmt.Errorf("advsearch: horizon %d out of range [1, %d]", c.Horizon, 8*c.N)
	}
	if c.Mode == "" {
		c.Mode = ModeGreedy
	}
	if c.Mode != ModeRandom && c.Mode != ModeGreedy && c.Mode != ModeEvolve {
		return c, fmt.Errorf("advsearch: unknown mode %q (have random, greedy, evolve)", c.Mode)
	}
	if c.Restarts < 0 || c.Restarts > 256 {
		return c, fmt.Errorf("advsearch: restarts %d out of range [0, 256]", c.Restarts)
	}
	if c.Steps == 0 {
		c.Steps = 16
	}
	if c.Steps < 0 || c.Steps > 4096 {
		return c, fmt.Errorf("advsearch: steps %d out of range [0, 4096]", c.Steps)
	}
	if c.Mode == ModeEvolve {
		if c.Pop == 0 {
			c.Pop = c.Restarts
			if c.Pop < 4 {
				c.Pop = 4
			}
		}
		if c.Pop < 2 || c.Pop > 256 {
			return c, fmt.Errorf("advsearch: population %d out of range [2, 256]", c.Pop)
		}
	} else {
		c.Pop = 0
	}
	if c.ExtraEdges == 0 {
		c.ExtraEdges = c.N / 2
	}
	if c.ExtraEdges < 0 || c.ExtraEdges > c.N*c.N {
		return c, fmt.Errorf("advsearch: extra edges %d out of range [0, %d]", c.ExtraEdges, c.N*c.N)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.EvalSeed == 0 {
		c.EvalSeed = c.Seed ^ 0x9e3779b97f4a7c15
	}
	if c.EvalBudget == 0 {
		c.EvalBudget = 200000
	}
	if c.EvalBudget < 1 {
		return c, fmt.Errorf("advsearch: eval budget %d must be positive", c.EvalBudget)
	}
	if c.Top == 0 {
		c.Top = 3
	}
	if c.Top < 1 || c.Top > 64 {
		return c, fmt.Errorf("advsearch: top %d out of range [1, 64]", c.Top)
	}
	return c, nil
}

// Key returns the content address of the normalized config — the
// checkpoint compatibility token.
func (c Config) Key() (string, error) {
	n, err := c.Normalize()
	if err != nil {
		return "", err
	}
	return harness.CanonicalJobKey("advsearch", n)
}

// Candidate is one evaluated schedule. Seq is its deterministic birth
// ordinal (constructed baseline = 0, then restarts/generations in index
// order); ties on Score break toward the lower Seq, so the argmax is a
// total order over candidates and independent of evaluation order.
type Candidate struct {
	Origin   string   `json:"origin"`
	Seq      int      `json:"seq"`
	Schedule Schedule `json:"schedule"`
	Hardness Hardness `json:"hardness"`
	Score    int64    `json:"score"`
}

// better reports whether a strictly precedes b in the hardness order:
// higher score first, earlier Seq on ties. It is a strict total order
// (Seqs are unique), which is what makes fold-the-argmax commutative
// enough to survive any evaluation order.
func better(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Seq < b.Seq
}

// UnitResult is one completed search unit (a restart chain).
type UnitResult struct {
	Unit      int       `json:"unit"`
	Best      Candidate `json:"best"`
	Evaluated int       `json:"evaluated"`
}

// State is the checkpointable search progress. It is pure data —
// cmd/advsearch persists it with cliutil.SaveJSON between batches — and
// resuming from it replays nothing: completed units (or generations)
// are skipped, and because every unit is a pure function of the config,
// a resumed search lands on the byte-identical report.
type State struct {
	// Key pins the config the state belongs to; Search refuses a
	// mismatched resume rather than silently mixing runs.
	Key string `json:"key"`
	// Units are the completed restart units (random/greedy), ascending.
	Units []UnitResult `json:"units,omitempty"`
	// Gen and Pop are the evolve-mode frontier: the population after
	// Gen completed generations.
	Gen int         `json:"gen,omitempty"`
	Pop []Candidate `json:"pop,omitempty"`
	// Evaluated counts candidate evaluations performed by the search
	// (the constructed baseline is not included).
	Evaluated int `json:"evaluated"`
}

// Report is the search outcome.
type Report struct {
	Config Config `json:"config"`
	// Constructed is the paper-construction baseline under the same
	// evaluation seed.
	Constructed Candidate `json:"constructed"`
	// Best is the overall argmax including the baseline; with zero
	// budget it is exactly the baseline.
	Best Candidate `json:"best"`
	// Top holds the best distinct discovered schedules (baseline
	// excluded), hardest first.
	Top []Candidate `json:"top,omitempty"`
	// Evaluated counts search evaluations; Improvements counts how many
	// times the running best improved while folding candidates in Seq
	// order.
	Evaluated    int `json:"evaluated"`
	Improvements int `json:"improvements"`
}

// Options carries the sweep options and the optional observability and
// progress hooks.
type Options struct {
	// Sweep runs the candidate evaluations: its Workers sets the batch
	// size and cell concurrency, and its Metrics and Spans receive the
	// per-cell roll-ups. The zero value evaluates one candidate at a time.
	Sweep harness.Sweep
	// Metrics, when non-nil, receives advsearch_candidates_total,
	// advsearch_improvements_total, and the advsearch_best_score gauge.
	Metrics *obs.Registry
	// Obs, when non-nil, receives one span per completed unit (track 1,
	// the harness sweep lane) on the unit-index clock.
	Obs obs.Sink
	// OnProgress, when non-nil, is called with the updated State after
	// every completed batch (and generation); returning an error aborts
	// the search. The callback runs on the caller's goroutine, after
	// the batch barrier, so it may serialize st without synchronization.
	OnProgress func(st *State) error
}

var keyUnitSpan = obs.Intern("advsearch_unit")

// Search runs the configured adversary search, resuming from st when it
// already holds progress (pass nil to start fresh; the populated State
// is returned alongside the report via the OnProgress hook). Candidate
// evaluations run as deterministic sweep cells under opt.Sweep; the
// report is bit-identical at every worker count and under any resume
// split.
func Search(cfg Config, st *State, opt Options) (*Report, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	key, err := cfg.Key()
	if err != nil {
		return nil, err
	}
	if st == nil {
		st = &State{Key: key}
	} else if st.Key == "" {
		st.Key = key
	} else if st.Key != key {
		return nil, fmt.Errorf("advsearch: checkpoint key %.12s... does not match config key %.12s...", st.Key, key)
	}

	base := Constructed(cfg.Proto, cfg.N, cfg.Horizon)
	if err := base.Validate(); err != nil {
		return nil, err
	}
	bh, err := Evaluate(cfg.Proto, base, cfg.EvalSeed, cfg.EvalBudget, nil)
	if err != nil {
		return nil, err
	}
	constructed := Candidate{Origin: "constructed", Seq: 0, Schedule: base, Hardness: bh, Score: bh.ScoreFor(cfg.Proto)}

	var pool []Candidate
	switch cfg.Mode {
	case ModeRandom, ModeGreedy:
		if err := searchUnits(cfg, st, opt); err != nil {
			return nil, err
		}
		for _, u := range st.Units {
			pool = append(pool, u.Best)
		}
	case ModeEvolve:
		if err := searchEvolve(cfg, st, opt); err != nil {
			return nil, err
		}
		pool = append(pool, st.Pop...)
	}

	rep := &Report{Config: cfg, Constructed: constructed, Best: constructed, Evaluated: st.Evaluated}
	sort.SliceStable(pool, func(i, j int) bool { return better(pool[i], pool[j]) })
	seen := map[string]bool{}
	for _, c := range pool {
		if better(c, rep.Best) {
			rep.Best = c
		}
		sig, err := json.Marshal(c.Schedule)
		if err != nil {
			return nil, err
		}
		if !seen[string(sig)] && len(rep.Top) < cfg.Top {
			seen[string(sig)] = true
			rep.Top = append(rep.Top, c)
		}
	}
	rep.Improvements = countImprovements(constructed, pool)

	if opt.Metrics != nil {
		opt.Metrics.Counter("advsearch_candidates_total").Add(int64(rep.Evaluated))
		opt.Metrics.Counter("advsearch_improvements_total").Add(int64(rep.Improvements))
		opt.Metrics.Gauge("advsearch_best_score").Set(rep.Best.Score)
	}
	return rep, nil
}

// countImprovements folds the candidate pool in Seq (birth) order and
// counts strict improvements over the running best — a deterministic
// "how often did the search advance" signal that no evaluation order
// can change.
func countImprovements(constructed Candidate, pool []Candidate) int {
	byBirth := append([]Candidate(nil), pool...)
	sort.SliceStable(byBirth, func(i, j int) bool { return byBirth[i].Seq < byBirth[j].Seq })
	best, n := constructed, 0
	for _, c := range byBirth {
		if better(c, best) {
			best, n = c, n+1
		}
	}
	return n
}

// searchUnits runs the random/greedy restart units that are not already
// in st, in batches of opt.Sweep.Workers cells, checkpointing after each
// batch. Every unit's work is a pure function of (cfg, unit index).
func searchUnits(cfg Config, st *State, opt Options) error {
	done := map[int]bool{}
	for _, u := range st.Units {
		done[u.Unit] = true
	}
	var pending []int
	for u := 0; u < cfg.Restarts; u++ {
		if !done[u] {
			pending = append(pending, u)
		}
	}
	batch := opt.Sweep.Workers
	if batch < 1 {
		batch = 1
	}
	for len(pending) > 0 {
		k := batch
		if k > len(pending) {
			k = len(pending)
		}
		units := pending[:k]
		pending = pending[k:]
		results := make([]UnitResult, k)
		err := opt.Sweep.ForEachCell(k, func(i int, reg *obs.Registry) error {
			r, err := runUnit(cfg, units[i], reg)
			if err != nil {
				return err
			}
			results[i] = r
			return nil
		})
		if err != nil {
			return err
		}
		for _, r := range results {
			st.Units = append(st.Units, r)
			st.Evaluated += r.Evaluated
			sp := obs.BeginSpan(opt.Obs, keyUnitSpan, 1, int32(r.Unit), int32(r.Unit), int64(r.Evaluated))
			sp.End(int32(r.Unit+1), r.Best.Score)
		}
		sort.Slice(st.Units, func(i, j int) bool { return st.Units[i].Unit < st.Units[j].Unit })
		if opt.OnProgress != nil {
			if err := opt.OnProgress(st); err != nil {
				return err
			}
		}
	}
	return nil
}

// runUnit executes one restart chain: a random start, then Steps
// samples (random mode) or strictly-improving mutation steps (greedy
// mode). Seq ordinals are globally unique: unit u's step k is candidate
// 1 + u*(Steps+1) + k.
func runUnit(cfg Config, unit int, reg *obs.Registry) (UnitResult, error) {
	root := rng.New(cfg.Seed)
	seq := func(step int) int { return 1 + unit*(cfg.Steps+1) + step }
	origin := func(step int) string { return fmt.Sprintf("%s r%d s%d", cfg.Mode, unit, step) }

	s := RandomSchedule(cfg.N, cfg.Horizon, cfg.ExtraEdges, root.Split('u', uint64(unit), 's', 0))
	h, err := Evaluate(cfg.Proto, s, cfg.EvalSeed, cfg.EvalBudget, reg)
	if err != nil {
		return UnitResult{}, err
	}
	cur := Candidate{Origin: origin(0), Seq: seq(0), Schedule: s, Hardness: h, Score: h.ScoreFor(cfg.Proto)}
	best := cur
	evaluated := 1

	for step := 1; step <= cfg.Steps; step++ {
		var cand Schedule
		switch cfg.Mode {
		case ModeRandom:
			cand = RandomSchedule(cfg.N, cfg.Horizon, cfg.ExtraEdges, root.Split('u', uint64(unit), 's', uint64(step)))
		case ModeGreedy:
			m, ok := mutate(cur.Schedule, root.Split('u', uint64(unit), 'm', uint64(step)))
			if !ok {
				continue
			}
			cand = m
		}
		h, err := Evaluate(cfg.Proto, cand, cfg.EvalSeed, cfg.EvalBudget, reg)
		if err != nil {
			return UnitResult{}, err
		}
		evaluated++
		c := Candidate{Origin: origin(step), Seq: seq(step), Schedule: cand, Hardness: h, Score: h.ScoreFor(cfg.Proto)}
		if better(c, best) {
			best = c
		}
		if cfg.Mode == ModeGreedy && c.Score > cur.Score {
			cur = c
		}
	}
	return UnitResult{Unit: unit, Best: best, Evaluated: evaluated}, nil
}

// searchEvolve runs the generational loop: initialize (or resume) the
// population, then per generation breed one child per slot by
// crossover+mutation over deterministically drawn parents, evaluate the
// brood as parallel cells, and keep the Pop hardest of parents+children.
func searchEvolve(cfg Config, st *State, opt Options) error {
	root := rng.New(cfg.Seed)
	if st.Pop == nil {
		inits := make([]Candidate, cfg.Pop)
		err := opt.Sweep.ForEachCell(cfg.Pop, func(i int, reg *obs.Registry) error {
			s := RandomSchedule(cfg.N, cfg.Horizon, cfg.ExtraEdges, root.Split('p', uint64(i)))
			h, err := Evaluate(cfg.Proto, s, cfg.EvalSeed, cfg.EvalBudget, reg)
			if err != nil {
				return err
			}
			inits[i] = Candidate{
				Origin: fmt.Sprintf("evolve init %d", i), Seq: 1 + i,
				Schedule: s, Hardness: h, Score: h.ScoreFor(cfg.Proto),
			}
			return nil
		})
		if err != nil {
			return err
		}
		st.Pop = inits
		st.Gen = 0
		st.Evaluated += cfg.Pop
		sortCandidates(st.Pop)
		if opt.OnProgress != nil {
			if err := opt.OnProgress(st); err != nil {
				return err
			}
		}
	}
	for g := st.Gen; g < cfg.Steps; g++ {
		children := make([]Schedule, cfg.Pop)
		origins := make([]string, cfg.Pop)
		for i := range children {
			src := root.Split('e', uint64(g), uint64(i))
			pa := st.Pop[src.Intn(len(st.Pop))]
			pb := st.Pop[src.Intn(len(st.Pop))]
			child := pa.Schedule
			if pa.Schedule.Rounds == pb.Schedule.Rounds && pa.Schedule.Rounds >= 2 && src.Bool() {
				child = crossover(pa.Schedule, pb.Schedule, src.Split('x'))
			}
			if m, ok := mutate(child, src.Split('m')); ok {
				child = m
			}
			children[i] = child
			origins[i] = fmt.Sprintf("evolve g%d c%d", g, i)
		}
		brood := make([]Candidate, cfg.Pop)
		err := opt.Sweep.ForEachCell(cfg.Pop, func(i int, reg *obs.Registry) error {
			h, err := Evaluate(cfg.Proto, children[i], cfg.EvalSeed, cfg.EvalBudget, reg)
			if err != nil {
				return err
			}
			brood[i] = Candidate{
				Origin: origins[i], Seq: 1 + cfg.Pop + g*cfg.Pop + i,
				Schedule: children[i], Hardness: h, Score: h.ScoreFor(cfg.Proto),
			}
			return nil
		})
		if err != nil {
			return err
		}
		merged := append(append([]Candidate(nil), st.Pop...), brood...)
		sortCandidates(merged)
		st.Pop = merged[:cfg.Pop]
		st.Gen = g + 1
		st.Evaluated += cfg.Pop
		sp := obs.BeginSpan(opt.Obs, keyUnitSpan, 1, int32(g), int32(g), int64(cfg.Pop))
		sp.End(int32(g+1), st.Pop[0].Score)
		if opt.OnProgress != nil {
			if err := opt.OnProgress(st); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortCandidates(cs []Candidate) {
	sort.SliceStable(cs, func(i, j int) bool { return better(cs[i], cs[j]) })
}

// mutate applies one random structural move to a copy of s: add an
// absent edge, delete an edge, or rewire one edge to another slot — in
// a random round, always preserving that round's connectivity. It
// returns ok=false when no valid move was found within its attempt
// budget (the schedule is untouched).
func mutate(s Schedule, src *rng.Source) (Schedule, bool) {
	gs := s.Graphs()
	if !mutateGraphs(gs, src) {
		return s, false
	}
	return FromGraphs(gs), true
}

func mutateGraphs(gs []*graph.Graph, src *rng.Source) bool {
	const attempts = 8
	for a := 0; a < attempts; a++ {
		t := src.Split(uint64(a))
		g := gs[t.Intn(len(gs))]
		n := g.N()
		switch t.Intn(3) {
		case 0: // add a random absent edge
			u, v := t.Intn(n), t.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
				return true
			}
		case 1: // delete a random edge, keeping the round connected
			edges := g.Edges()
			if len(edges) == 0 {
				continue
			}
			e := edges[t.Intn(len(edges))]
			g.RemoveEdge(e[0], e[1])
			if g.Connected() {
				return true
			}
			g.AddEdge(e[0], e[1])
		default: // rewire: move one edge to another slot
			edges := g.Edges()
			if len(edges) == 0 {
				continue
			}
			e := edges[t.Intn(len(edges))]
			u, v := t.Intn(n), t.Intn(n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.RemoveEdge(e[0], e[1])
			g.AddEdge(u, v)
			if g.Connected() {
				return true
			}
			g.RemoveEdge(u, v)
			g.AddEdge(e[0], e[1])
		}
	}
	return false
}

// crossover splices two equal-shape schedules at a random round
// boundary: the child plays a's rounds up to the cut and b's after it.
// Both parents satisfy per-round connectivity, so the child does too.
func crossover(a, b Schedule, src *rng.Source) Schedule {
	ga, gb := a.Graphs(), b.Graphs()
	cut := 1 + src.Intn(a.Rounds-1)
	child := append(ga[:cut:cut], gb[cut:]...)
	return FromGraphs(child)
}
