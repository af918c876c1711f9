package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// Determinism enforces the repository's determinism policy, one table
// row per package tree. The paper's lower bounds (Theorems 6-7) require
// public-coin executions: every coin must be a pure function of (seed,
// node, round) so Alice and Bob can re-simulate any node bit-identically
// from the shared seed (internal/rng implements exactly this contract).
// A single math/rand draw or wall-clock read makes the re-simulation
// diverge from the reference execution and silently voids the
// reduction, so every row bans both. The layers whose output is itself
// a reproducibility artifact (event logs, fault schedules, served
// results, distributed runs, search reports) are strict rows: they also
// ban order-free map iteration, because a loop that walks a map is one
// refactor away from leaking its order. maporder skips the strict rows,
// so one loop yields one finding.
//
// A wall-clock read that can only change when something happens, never
// what is computed (serve's latency metrics, wire's socket deadlines),
// carries a //lint:allow determinism annotation saying so.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid math/rand and wall-clock reads in simulation packages, and any map iteration in the strict " +
		"layers (obs, faults, serve, wire, advsearch); executions must be re-simulable from the public seed",
	Scope: func(path string) bool { return policyFor(path) != nil },
	Run:   runDeterminism,
}

// policyRow is one package tree's determinism contract.
type policyRow struct {
	Tree string // segment-aligned import-path tree, as in underAny
	// Strict also bans map iteration that leaks no order.
	Strict bool
	// Reason is quoted by every finding, so it says why the row exists.
	Reason string
}

const coinReason = "protocol behavior must be a pure function of (seed, node, round), with coins from internal/rng (public-coin re-simulation)"

// determinismPolicy is the determinism policy, the one place it lives.
var determinismPolicy = []policyRow{
	{"internal/dynet", false, coinReason},
	{"internal/protocols", false, coinReason},
	{"internal/adversaries", false, coinReason},
	{"internal/chains", false, coinReason},
	{"internal/subnet", false, coinReason},
	{"internal/harness", false, "every sweep cell's seed is a pure function of (sweep seed, cell params), so tables are identical at any worker count"},
	{"internal/obs", true, "event logs and metric expositions must be byte-identical across runs: walk insertion-order slices, and rounds are the only clock"},
	{"internal/faults", true, "fault schedules must be pure functions of (seed, round, node, edge) so faulty trials replay bit-identically"},
	{"internal/serve", true, "content-addressed results must be pure functions of (kind, params): walk the insertion-order key slice, and annotate queue/timeout clock reads with //lint:allow determinism"},
	{"internal/wire", true, "distributed runs must equal Engine.Run byte for byte: walk nodes by index, and annotate deadline-arming clock reads with //lint:allow determinism"},
	{"internal/advsearch", true, "search results must be pure functions of (config, seeds): walk Seq-ordered slices, and count budgets in evaluations and rounds"},
}

// policyFor returns the row governing an import path, or nil.
func policyFor(path string) *policyRow {
	for i := range determinismPolicy {
		if underAny(path, determinismPolicy[i].Tree) {
			return &determinismPolicy[i]
		}
	}
	return nil
}

func runDeterminism(p *Pass) {
	row := policyFor(p.Pkg.Path())
	if row == nil {
		return
	}
	for _, f := range p.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			kind, what := classifySink(p.Info, file, n)
			if kind != noSink && (kind != mapSink || row.Strict) {
				p.Reportf(n.Pos(), "%s: %s", what, row.Reason)
			}
			return true
		})
	}
}

// sink is one kind of nondeterminism source.
type sink int

const (
	noSink    sink = iota
	clockSink      // time.Now, time.Since, time.Until
	randSink       // any use or import of math/rand or math/rand/v2
	mapSink        // a range over a map
)

// clockCalls are the time package functions that read the wall clock.
var clockCalls = map[string]bool{"Now": true, "Since": true, "Until": true}

// classifySink is the one sink classifier of the determinism and
// puritytaint rules: it reports which nondeterminism source n is and
// describes it, or returns noSink. f supplies the import-name fallback
// of importPathOf and may be nil.
func classifySink(info *types.Info, f *ast.File, n ast.Node) (sink, string) {
	switch n := n.(type) {
	case *ast.ImportSpec:
		if path, err := strconv.Unquote(n.Path.Value); err == nil && isRandPkg(path) {
			return randSink, "import of " + path + " draws ambient randomness"
		}
	case *ast.SelectorExpr:
		switch path := importPathOf(info, f, n.X); {
		case path == "time" && clockCalls[n.Sel.Name]:
			return clockSink, "time." + n.Sel.Name + " reads the wall clock"
		case isRandPkg(path):
			return randSink, path + "." + n.Sel.Name + " draws ambient randomness"
		}
	case *ast.RangeStmt:
		if isMapRange(info, n) {
			return mapSink, "range over a map has randomized iteration order"
		}
	}
	return noSink, ""
}

func isRandPkg(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

// isMapRange reports whether the range statement iterates a map. When
// type information is unavailable the loop is not flagged (the rules
// never guess).
func isMapRange(info *types.Info, rng *ast.RangeStmt) bool {
	t := info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// importPathOf is the one package resolver of the rules: it maps a
// selector qualifier to the import path of the package it names, or ""
// when it names none. Type information decides when it has the answer;
// when it is partial (a file with type errors), the qualifier is matched
// against f's import names instead, unless a local object shadows it.
func importPathOf(info *types.Info, f *ast.File, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	obj := info.ObjectOf(id)
	if pn, ok := obj.(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	if obj != nil || f == nil {
		return ""
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}
