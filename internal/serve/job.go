package serve

import (
	"fmt"

	"dyndiam/internal/advsearch"
	"dyndiam/internal/harness"
)

// Kind names one experiment job type the service can execute.
type Kind string

// The served experiment kinds. Each maps onto one internal/harness entry
// point; see run (exec.go) for the dispatch.
const (
	// KindLeaderReliability repeats the Section 7 leader election across
	// seeded trials and reports the empirical error rate (E3 reliability).
	KindLeaderReliability Kind = "leader_reliability"
	// KindLeaderDegradation sweeps the leader election across one fault
	// dimension (drop/dup/corrupt/crash/edgecut) at the requested rates.
	KindLeaderDegradation Kind = "leader_degradation"
	// KindCFloodDegradation sweeps unknown-diameter confirmed flooding
	// across one fault dimension.
	KindCFloodDegradation Kind = "cflood_degradation"
	// KindGapTable produces the E4 known-vs-unknown-diameter gap table.
	KindGapTable Kind = "gap_table"
	// KindReduction runs the Theorem 6 two-party reduction experiment
	// (E1) for each requested promise parameter q.
	KindReduction Kind = "reduction"
	// KindFigure renders one of the paper's construction figures (1-3).
	KindFigure Kind = "figure"
	// KindAdvSearch runs the adversary-synthesis search for one protocol
	// and reports discovered-vs-constructed hardness. Long searches fit
	// the serving model naturally: deterministic, content-addressed, and
	// resumable through the job cache.
	KindAdvSearch Kind = "advsearch"
)

// degradationProblem maps each degradation kind to the problem it sweeps.
var degradationProblem = map[Kind]string{
	KindLeaderDegradation: "leader",
	KindCFloodDegradation: "cflood",
}

// Kinds lists every served kind in a stable order.
func Kinds() []Kind {
	return []Kind{
		KindLeaderReliability,
		KindLeaderDegradation,
		KindCFloodDegradation,
		KindGapTable,
		KindReduction,
		KindFigure,
		KindAdvSearch,
	}
}

// Params carries every tunable a job kind can read. One flat struct (no
// maps, fixed field order) keeps the canonical JSON encoding — and with
// it the content key — deterministic. normalize zeroes the fields a kind
// does not read, so submissions that differ only in irrelevant fields
// land on the same cache entry.
type Params struct {
	// N is the network size (reliability, degradations) or the chain
	// length of the reduction instance (reduction).
	N int `json:"n,omitempty"`
	// TargetDiam is the adversary family's target dynamic diameter.
	TargetDiam int `json:"target_diam,omitempty"`
	// Trials is the per-row trial count of repeated-seed kinds.
	Trials int `json:"trials,omitempty"`
	// Seed roots the public coins (gap, reduction) or the fault plans
	// (degradations). Reliability trials use the shared harness trial
	// seeds and ignore it.
	Seed uint64 `json:"seed,omitempty"`
	// Sizes are the network sizes of a gap table.
	Sizes []int `json:"sizes,omitempty"`
	// Qs are the cycle-promise parameters of a reduction run (odd, >= 3).
	Qs []int `json:"qs,omitempty"`
	// Dim is the fault dimension of a degradation sweep.
	Dim string `json:"dim,omitempty"`
	// Rates are the fault rates of a degradation sweep (include 0 for
	// the clean anchor row).
	Rates []float64 `json:"rates,omitempty"`
	// Figure selects the construction figure (1, 2, or 3).
	Figure int `json:"figure,omitempty"`
	// Proto is the protocol objective of an adversary search.
	Proto string `json:"proto,omitempty"`
	// Mode is the adversary-search strategy (random, greedy, evolve).
	Mode string `json:"mode,omitempty"`
	// Horizon is the scripted schedule length of an adversary search.
	Horizon int `json:"horizon,omitempty"`
	// Restarts and Steps bound an adversary search's budget.
	Restarts int `json:"restarts,omitempty"`
	Steps    int `json:"steps,omitempty"`
}

// Service-protection bounds: the service computes everything it serves,
// so parameter validation is the only thing standing between one request
// and an arbitrarily large computation.
const (
	maxN      = 512
	maxTrials = 2000
	maxSizes  = 16
	maxQ      = 257
	maxRates  = 32
	// Adversary searches evaluate restarts*(steps+1) protocol runs, so
	// their bounds are tighter than the single-run kinds'.
	maxAdvN        = 32
	maxAdvRestarts = 16
	maxAdvSteps    = 64
)

// normalize applies kind defaults, validates the service bounds, and
// zeroes every field the kind does not read. The returned Params is what
// gets hashed into the content key and echoed in results, so two
// requests that normalize equally are one job.
func normalize(kind Kind, p Params) (Params, error) {
	switch kind {
	case KindLeaderReliability:
		return normalizeTrialKind(kind, p, false)
	case KindLeaderDegradation, KindCFloodDegradation:
		return normalizeTrialKind(kind, p, true)
	case KindGapTable:
		n := Params{Sizes: p.Sizes, TargetDiam: p.TargetDiam, Seed: p.Seed}
		if len(n.Sizes) == 0 {
			n.Sizes = []int{16, 32}
		}
		if len(n.Sizes) > maxSizes {
			return n, fmt.Errorf("serve: at most %d sizes per gap table, got %d", maxSizes, len(n.Sizes))
		}
		for _, s := range n.Sizes {
			if s < 4 || s > maxN {
				return n, fmt.Errorf("serve: gap table size %d out of range [4, %d]", s, maxN)
			}
		}
		if err := normalizeDiam(&n); err != nil {
			return n, err
		}
		if n.Seed == 0 {
			n.Seed = 1
		}
		return n, nil
	case KindReduction:
		n := Params{N: p.N, Qs: p.Qs, Seed: p.Seed}
		if n.N == 0 {
			n.N = 2
		}
		if n.N < 1 || n.N > 8 {
			return n, fmt.Errorf("serve: reduction chain length %d out of range [1, 8]", n.N)
		}
		if len(n.Qs) == 0 {
			n.Qs = []int{9, 17}
		}
		if len(n.Qs) > maxSizes {
			return n, fmt.Errorf("serve: at most %d qs per reduction, got %d", maxSizes, len(n.Qs))
		}
		for _, q := range n.Qs {
			if q < 3 || q > maxQ || q%2 == 0 {
				return n, fmt.Errorf("serve: reduction q %d must be odd in [3, %d]", q, maxQ)
			}
		}
		if n.Seed == 0 {
			n.Seed = 1
		}
		return n, nil
	case KindAdvSearch:
		n := Params{
			N: p.N, Seed: p.Seed, Proto: p.Proto, Mode: p.Mode,
			Horizon: p.Horizon, Restarts: p.Restarts, Steps: p.Steps,
		}
		if n.N == 0 {
			n.N = 10
		}
		if n.N < 4 || n.N > maxAdvN {
			return n, fmt.Errorf("serve: adversary-search size %d out of range [4, %d]", n.N, maxAdvN)
		}
		if n.Seed == 0 {
			n.Seed = 1
		}
		if n.Proto == "" {
			n.Proto = string(advsearch.ProtoCFloodKnown)
		}
		if _, err := advsearch.ParseProto(n.Proto); err != nil {
			return n, err
		}
		if n.Mode == "" {
			n.Mode = string(advsearch.ModeGreedy)
		}
		if n.Horizon == 0 {
			n.Horizon = 2 * n.N
		}
		if n.Horizon < 1 || n.Horizon > 4*n.N {
			return n, fmt.Errorf("serve: adversary-search horizon %d out of range [1, %d]", n.Horizon, 4*n.N)
		}
		if n.Restarts == 0 {
			n.Restarts = 2
		}
		if n.Restarts < 0 || n.Restarts > maxAdvRestarts {
			return n, fmt.Errorf("serve: adversary-search restarts %d out of range [0, %d]", n.Restarts, maxAdvRestarts)
		}
		if n.Steps == 0 {
			n.Steps = 8
		}
		if n.Steps < 1 || n.Steps > maxAdvSteps {
			return n, fmt.Errorf("serve: adversary-search steps %d out of range [1, %d]", n.Steps, maxAdvSteps)
		}
		// The search config owns the rest of the validation (mode
		// vocabulary, budget shape); normalize it once here so bad
		// submissions fail at admission, not execution.
		if _, err := advSearchConfig(n).Normalize(); err != nil {
			return n, err
		}
		return n, nil
	case KindFigure:
		n := Params{Figure: p.Figure}
		if n.Figure == 0 {
			n.Figure = 1
		}
		if n.Figure < 1 || n.Figure > 3 {
			return n, fmt.Errorf("serve: figure %d out of range [1, 3]", n.Figure)
		}
		return n, nil
	}
	return Params{}, fmt.Errorf("serve: unknown job kind %q", kind)
}

// normalizeTrialKind handles the repeated-trial kinds (reliability and
// the two degradations), which share the N/TargetDiam/Trials core.
func normalizeTrialKind(kind Kind, p Params, degradation bool) (Params, error) {
	n := Params{N: p.N, TargetDiam: p.TargetDiam, Trials: p.Trials}
	if n.N == 0 {
		n.N = 16
	}
	if n.N < 4 || n.N > maxN {
		return n, fmt.Errorf("serve: network size %d out of range [4, %d]", n.N, maxN)
	}
	if n.Trials == 0 {
		n.Trials = 6
	}
	if n.Trials < 1 || n.Trials > maxTrials {
		return n, fmt.Errorf("serve: trials %d out of range [1, %d]", n.Trials, maxTrials)
	}
	if err := normalizeDiam(&n); err != nil {
		return n, err
	}
	if !degradation {
		return n, nil
	}
	n.Seed = p.Seed
	if n.Seed == 0 {
		n.Seed = 1
	}
	n.Dim = p.Dim
	if n.Dim == "" {
		n.Dim = "drop"
	}
	if _, err := harness.FaultSpecFor(n.Dim, 0); err != nil {
		return n, err
	}
	n.Rates = p.Rates
	if len(n.Rates) == 0 {
		n.Rates = []float64{0, 0.05, 0.2}
	}
	if len(n.Rates) > maxRates {
		return n, fmt.Errorf("serve: at most %d rates per degradation sweep, got %d", maxRates, len(n.Rates))
	}
	for _, r := range n.Rates {
		if r < 0 || r > 1 {
			return n, fmt.Errorf("serve: fault rate %v out of range [0, 1]", r)
		}
	}
	if _, err := normalizeSpecs(n); err != nil {
		return n, err
	}
	return n, nil
}

// normalizeDiam defaults and validates the target diameter shared by the
// network-family kinds.
func normalizeDiam(p *Params) error {
	if p.TargetDiam == 0 {
		p.TargetDiam = 4
	}
	if p.TargetDiam < 1 || p.TargetDiam > maxN {
		return fmt.Errorf("serve: target diameter %d out of range [1, %d]", p.TargetDiam, maxN)
	}
	return nil
}

// jobKey computes the content address of a normalized (kind, params)
// pair. Normalization has already collapsed equivalent submissions, so
// equal keys mean byte-identical results.
func jobKey(kind Kind, p Params) (string, error) {
	return harness.CanonicalJobKey(string(kind), p)
}
