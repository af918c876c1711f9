package lint

import (
	"go/ast"
	"go/types"
)

// PurityTaint is the interprocedural determinism rule. The paper's
// public-coin reductions (Theorems 6-7) collapse if any state machine
// step depends on wall time, ambient randomness, or map iteration order:
// two replays of the same coin tape would diverge. The determinism rule
// catches direct violations inside its policy's packages; this rule
// closes the interprocedural gap — a helper two packages away calling
// time.Now taints every Machine.Step that reaches it.
//
// Roots are discovered structurally plus by annotation:
//
//   - every Step and Deliver method of a type implementing a
//     module interface named Machine with a Step method, and
//   - every function annotated //lint:pure in its doc comment
//     (the harness sweep cells, which must be replayable).
//
// Sinks, flagged in every reachable function, are those of the
// determinism rule's classifier (classifySink): time.Now / time.Since /
// time.Until, any use of math/rand or math/rand/v2, and ranging over a
// map (iteration order is randomized by the runtime). An allow on a
// call-site line prunes traversal; on a sink line it suppresses the
// finding.
var PurityTaint = &ModuleAnalyzer{
	Name: "puritytaint",
	Doc: "no function reachable from Machine.Step/Deliver or //lint:pure roots may read " +
		"wall clocks (time.Now/Since/Until), math/rand, or range over a map",
	Run: runPurityTaint,
}

func runPurityTaint(mp *ModulePass) {
	roots := machineRoots(mp.Graph)
	roots = append(roots, mp.Graph.Annotated("pure")...)
	reach := reachFrom(mp, roots)
	for _, n := range reach.order {
		checkPure(mp, n, reach)
	}
}

// machineRoots finds the Step and Deliver methods of every module type
// implementing a module interface named Machine that has a Step method.
// Discovery is structural so protocol packages need no annotations: adding
// a new Machine implementation is automatically covered.
func machineRoots(g *CallGraph) []*FuncNode {
	var roots []*FuncNode
	seen := map[*FuncNode]bool{}
	for _, named := range g.named {
		if named.Obj().Name() != "Machine" {
			continue
		}
		iface, ok := named.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			continue
		}
		hasStep := false
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Step" {
				hasStep = true
			}
		}
		if !hasStep {
			continue
		}
		for _, method := range [...]string{"Step", "Deliver"} {
			for _, impl := range g.implementations(iface, method) {
				if !seen[impl] {
					seen[impl] = true
					roots = append(roots, impl)
				}
			}
		}
	}
	return roots
}

// pureAdvice tells a puritytaint finding's reader what to do instead.
var pureAdvice = map[sink]string{
	clockSink: "thread logical round numbers instead",
	randSink:  "use internal/rng coin tapes instead",
	mapSink:   "collect and sort keys instead",
}

// checkPure scans one reachable function body for nondeterminism sinks.
func checkPure(mp *ModulePass, n *FuncNode, reach *reachResult) {
	suffix := " [taint path: " + reach.path(n) + "]"
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if kind, what := classifySink(n.Pkg.Info, nil, x); kind != noSink {
			mp.Reportf(x.Pos(), "%s; %s%s", what, pureAdvice[kind], suffix)
		}
		return true
	})
}
