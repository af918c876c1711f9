package serve

import (
	"encoding/json"
	"fmt"
	"strings"

	"dyndiam/internal/advsearch"
	"dyndiam/internal/faults"
	"dyndiam/internal/harness"
)

// Result is the envelope every job marshals into. It echoes the
// normalized parameters so a cached body is self-describing, renders the
// human table alongside the structured rows, and is marshaled exactly
// once per cache entry — every fetch of the same key serves the same
// bytes.
type Result struct {
	Kind   Kind        `json:"kind"`
	Params Params      `json:"params"`
	Table  string      `json:"table,omitempty"`
	Data   interface{} `json:"data,omitempty"`
}

// advSearchConfig maps a normalized advsearch job onto the search
// config. Kept next to the dispatch so the two stay one translation.
func advSearchConfig(p Params) advsearch.Config {
	return advsearch.Config{
		Proto:    advsearch.Proto(p.Proto),
		N:        p.N,
		Horizon:  p.Horizon,
		Mode:     advsearch.Mode(p.Mode),
		Restarts: p.Restarts,
		Steps:    p.Steps,
		Seed:     p.Seed,
	}
}

// normalizeSpecs expands a degradation job's (Dim, Rates) into the fault
// Specs of the sweep, one row per rate in submission order.
func normalizeSpecs(p Params) ([]faults.Spec, error) {
	specs := make([]faults.Spec, 0, len(p.Rates))
	for _, r := range p.Rates {
		s, err := harness.FaultSpecFor(p.Dim, r)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// run executes one normalized job against the harness under sw and
// marshals the Result envelope. It is the Server's default exec hook;
// tests swap in stubs to drive the scheduling machinery without paying
// for sweeps.
func run(sw harness.Sweep, kind Kind, p Params) ([]byte, error) {
	res := Result{Kind: kind, Params: p}
	switch kind {
	case KindLeaderReliability:
		rel, err := sw.LeaderReliability(p.N, p.TargetDiam, p.Trials, nil)
		if err != nil {
			return nil, err
		}
		res.Table = harness.FormatReliability("LEADER", rel)
		res.Data = rel
	case KindLeaderDegradation, KindCFloodDegradation:
		specs, err := normalizeSpecs(p)
		if err != nil {
			return nil, err
		}
		cfg := harness.DegradationConfig{
			N: p.N, TargetDiam: p.TargetDiam, Trials: p.Trials,
			Seed: p.Seed, Specs: specs,
		}
		problem := degradationProblem[kind]
		rows, err := sw.Degradation(problem, cfg)
		if err != nil {
			return nil, err
		}
		res.Table = harness.FormatDegradationTable(strings.ToUpper(problem), rows).String()
		res.Data = harness.DegradationRowsJSON(rows)
	case KindGapTable:
		rows, err := sw.GapTable(p.Sizes, p.TargetDiam, p.Seed)
		if err != nil {
			return nil, err
		}
		res.Table = harness.FormatGapTable(rows).String()
		res.Data = rows
	case KindReduction:
		rows, err := sw.CFloodReduction(p.Qs, p.N, p.Seed)
		if err != nil {
			return nil, err
		}
		res.Table = harness.FormatReductionTable("E1 reduction", rows).String()
		res.Data = rows
	case KindAdvSearch:
		rep, err := advsearch.Search(advSearchConfig(p), nil, advsearch.Options{Sweep: sw})
		if err != nil {
			return nil, err
		}
		res.Table = advsearch.FormatHardnessTable([]advsearch.HardnessRow{advsearch.RowFromReport(rep)}).String()
		res.Data = rep
	case KindFigure:
		var fig string
		var err error
		switch p.Figure {
		case 1:
			fig, err = harness.Figure1()
		case 2:
			fig, err = harness.Figure2()
		default:
			fig, err = harness.Figure3()
		}
		if err != nil {
			return nil, err
		}
		res.Table = fig
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q", kind)
	}
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: marshaling %s result: %v", kind, err)
	}
	return append(body, '\n'), nil
}
