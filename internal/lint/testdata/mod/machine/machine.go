// Package machine mirrors the engine's Machine contract for the purity
// corpus: puritytaint discovers its roots structurally from any module
// interface named Machine with a Step method, so Proto needs no
// annotation to be covered.
package machine

import (
	"time"

	"corpusmod/mhelp"
)

// Machine is the corpus twin of the engine's state-machine interface.
type Machine interface {
	Step(r int) int64
	Deliver(r int, v int64)
}

// Proto implements Machine; its Step and Deliver are taint roots.
type Proto struct {
	acc  int64
	hist map[int]int
}

// Step reaches the wall clock and math/rand through two helper packages.
func (p *Proto) Step(r int) int64 {
	return mhelp.Jitter(r) + int64(mhelp.Roll(r+1))
}

// Deliver ranges over a map through a helper.
func (p *Proto) Deliver(r int, v int64) {
	p.acc += v + int64(mhelp.Tally(p.hist))
}

// TrailingDemo pins the trailing-allow scoping regression: the directive
// on the first clock line covers only its own line, never the next.
//
//lint:pure
func TrailingDemo() int64 {
	a := time.Now().UnixNano() //lint:allow puritytaint trailing allows cover their own line only
	b := time.Now().UnixNano() // want:puritytaint
	return a + b
}

// Clean is pure end to end, so its allow directive suppresses nothing
// and must be reported stale.
//
//lint:pure
func Clean(x int) int {
	return x + 1 //lint:allow puritytaint want:staleallow this escape is stale
}

// Typo carries a directive naming a rule that does not exist; reported
// unconditionally, since the typo leaves the line unprotected.
func Typo(x int) int {
	return x * 2 //lint:allow puritytant want:staleallow misspelled rule name
}

// Retired carries directives naming the per-layer determinism rules
// that the determinism policy table replaced; a leftover name is an
// unknown rule, reported like any typo.
func Retired(x int) int {
	//lint:allow obsdeterminism want:staleallow retired rule name
	//lint:allow faultsdeterminism want:staleallow retired rule name
	//lint:allow servedeterminism want:staleallow retired rule name
	//lint:allow wiredeterminism want:staleallow retired rule name
	//lint:allow searchdeterminism want:staleallow retired rule name
	return x
}
