package harness

import "fmt"

// DefaultRoundBudget is the round horizon the harness grants an open-ended
// protocol run (leader election, consensus) before declaring
// non-termination. Theorem 8 runs terminate in O((D+log N) log² N) rounds,
// far below this; the budget exists so a broken protocol or a faulty run
// surfaces as a structured NonTermination instead of spinning forever.
// Sweep.Budget overrides it per sweep.
const DefaultRoundBudget = 50_000_000

// NonTermination reports that a run exhausted its round budget without
// deciding. It is a structured error so sweep layers can record it as a
// per-cell outcome (see gracefulCells) instead of aborting a whole table.
type NonTermination struct {
	Name   string // experiment or protocol label
	Cell   int    // trial or cell index within the sweep
	Budget int    // the round budget that was exhausted
}

func (e NonTermination) Error() string {
	return fmt.Sprintf("harness: %s cell %d did not terminate within %d rounds", e.Name, e.Cell, e.Budget)
}
