package lint

import "go/ast"

// SearchDeterminism extends the strict determinism contract to the
// adversary-synthesis layer (internal/advsearch). A search result is a
// reproducibility contract three times over: the golden tests pin
// byte-identical reports across Sweep.Workers settings, checkpoints
// resume onto the identical result, and every corpus entry records the
// exact seeds that re-derive its hardness bit for bit. All three break
// the moment a candidate, a dedupe decision, or a progress callback
// depends on map iteration order — so, as in internal/faults, even
// order-independent map iteration is banned (keyed lookups over sorted
// or Seq-ordered slices are the sanctioned pattern). Wall-clock reads
// are banned outright: search budgets are counted in evaluations and
// rounds, never in elapsed time.
var SearchDeterminism = &Analyzer{
	Name: "searchdeterminism",
	Doc: "forbid any map iteration and wall-clock reads in internal/advsearch: " +
		"search results must be pure functions of (config, seeds) so reports, checkpoints, and corpus entries replay bit-identically",
	Scope: func(path string) bool { return underAny(path, "internal/advsearch") },
	Run:   runSearchDeterminism,
}

func runSearchDeterminism(p *Pass) {
	for _, f := range p.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if p.isMapRange(n) {
					p.Reportf(n.Pos(), "map iteration in the adversary-search layer: candidates and dedupe sets must walk Seq-ordered slices, never map order")
				}
			case *ast.SelectorExpr:
				if p.pkgIdentOrName(file, n.X) == "time" && bannedClockCalls[n.Sel.Name] {
					p.Reportf(n.Pos(), "time.%s in the adversary-search layer: budgets are evaluations and rounds; wall-clock reads make search results unreplayable", n.Sel.Name)
				}
			}
			return true
		})
	}
}
