package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `for range` loops over maps whose bodies leak the
// iteration order into observable results: appending to a slice that
// outlives the loop, returning from inside the loop, or formatting an
// error/string. Go randomizes map iteration order per execution, so any
// of these makes "which node is reported" or "which value is picked"
// vary run to run — which breaks the bit-identical re-simulation the
// reduction harness depends on and makes failures unreproducible.
//
// Order-independent writes (assigning to an element keyed by the loop
// variable, accumulating into a local declared inside the loop body) are
// not flagged. Intentionally order-free uses (e.g. collect-then-sort)
// carry a //lint:allow maporder comment naming the argument. The strict
// rows of the determinism policy are skipped: determinism already bans
// every map range there, so one loop yields one finding.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose order leaks into returns, errors, or slices " +
		"(nondeterministic iteration order must not reach results)",
	Scope: func(path string) bool {
		row := policyFor(path)
		return underAny(path, "internal") && (row == nil || !row.Strict)
	},
	Run: runMapOrder,
}

// orderSensitiveCalls format values into ordered output.
var orderSensitiveCalls = map[string]map[string]bool{
	"fmt":    {"Errorf": true, "Sprintf": true, "Sprint": true, "Sprintln": true},
	"errors": {"New": true},
}

func runMapOrder(p *Pass) {
	for _, f := range p.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !isMapRange(p.Info, rng) {
				return true
			}
			p.checkMapBody(file, rng)
			return true
		})
	}
}

func (p *Pass) checkMapBody(f *ast.File, rng *ast.RangeStmt) {
	body := rng.Body
	var walk func(n ast.Node, inFuncLit bool)
	walk = func(root ast.Node, inFuncLit bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// A return inside a closure does not exit the loop, but
				// an append inside one still accumulates — recurse with
				// the return check disabled.
				walk(n.Body, true)
				return false
			case *ast.ReturnStmt:
				if !inFuncLit && len(n.Results) > 0 {
					p.Reportf(n.Pos(), "return inside map iteration: which element returns first depends on randomized map order")
				}
			case *ast.CallExpr:
				p.checkMapBodyCall(f, body, n)
			}
			return true
		})
	}
	walk(body, false)
}

func (p *Pass) checkMapBodyCall(f *ast.File, body *ast.BlockStmt, call *ast.CallExpr) {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		if fn.Name != "append" || len(call.Args) == 0 {
			return
		}
		if obj := p.ObjectOf(fn); obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
				return // shadowed append
			}
		}
		if !p.accumulatesAcrossIterations(call.Args[0], body) {
			return
		}
		p.Reportf(call.Pos(), "append inside map iteration builds a slice in randomized map order")
	case *ast.SelectorExpr:
		pkg := importPathOf(p.Info, f, fn.X)
		if sels, ok := orderSensitiveCalls[pkgBase(pkg)]; ok && sels[fn.Sel.Name] {
			p.Reportf(call.Pos(), "%s.%s inside map iteration: message content depends on randomized map order", pkgBase(pkg), fn.Sel.Name)
		}
	}
}

// accumulatesAcrossIterations decides whether appending to dst can carry
// map-iteration order out of the loop: true for identifiers declared
// outside the loop body and for selector/index targets (fields and
// elements live across iterations); false for loop-local identifiers and
// for fresh values (literals, conversions like append([]byte(nil), ...),
// calls), which cannot accumulate.
func (p *Pass) accumulatesAcrossIterations(dst ast.Expr, body *ast.BlockStmt) bool {
	switch dst := dst.(type) {
	case *ast.Ident:
		obj := p.ObjectOf(dst)
		if obj == nil || obj.Pos() == token.NoPos {
			return true // unresolved: assume the worst
		}
		return obj.Pos() < body.Pos() || obj.Pos() > body.End()
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	default:
		return false
	}
}

func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
