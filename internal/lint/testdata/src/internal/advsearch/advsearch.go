// Package advsearch is the determinism fixture of the adversary-search
// row: reports, checkpoints and corpus entries must replay bit for bit,
// so candidates walk Seq-ordered slices and budgets count evaluations.
package advsearch

import (
	"math/rand" // want:determinism
	"time"
)

type candidate struct {
	seq   int
	score int64
}

type pool struct {
	seen  map[string]candidate
	order []string
}

// MarkEvaluated flags every seen candidate through keyed writes; the
// visit order is still randomized map order.
func MarkEvaluated(p *pool, done map[int]bool) {
	for _, c := range p.seen { // want:determinism
		done[c.seq] = true
	}
}

// Shuffle reorders candidates with ambient randomness instead of the
// search's seeded stream.
func Shuffle(cs []candidate) {
	rand.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] }) // want:determinism
}

// Expired cuts a search off against the wall clock instead of an
// evaluation budget.
func Expired(deadline int64) bool {
	return time.Now().Unix() > deadline // want:determinism
}

// Best folds the Seq-ordered slice with keyed lookups, so ties resolve
// by birth ordinal at any worker count.
func Best(p *pool) candidate {
	var best candidate
	for _, key := range p.order {
		if c := p.seen[key]; c.score > best.score {
			best = c
		}
	}
	return best
}
