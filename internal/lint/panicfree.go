package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PanicFree forbids panic in library packages. The simulator is headed
// for long-running, parallel, production-scale use (see ROADMAP), where a
// panic in one sweep cell's goroutine tears down the whole process with a
// partial execution — errors must flow through the Result path instead.
// Panics are tolerated in two places only: invariant-check helpers
// (functions named must*/assert*/invariant*, or the conventional
// `check` bounds-guard), and sites carrying a //lint:allow panicfree
// comment arguing the condition is a programming error that cannot be
// triggered by inputs.
var PanicFree = &Analyzer{
	Name: "panicfree",
	Doc: "forbid panic outside invariant-check helpers in library packages; " +
		"runtime failures must surface as errors, not torn-down engines",
	Scope: func(path string) bool { return underAny(path, "internal") },
	Run:   runPanicFree,
}

// invariantHelper reports whether a function name marks a designated
// invariant-check helper.
func invariantHelper(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "must") ||
		strings.HasPrefix(lower, "assert") ||
		strings.HasPrefix(lower, "invariant") ||
		lower == "check"
}

func runPanicFree(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if invariantHelper(fn.Name.Name) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if obj := p.ObjectOf(id); obj != nil {
					if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
						return true // shadowed panic
					}
				}
				p.Reportf(call.Pos(), "panic in library code: return an error (or move the check into a must*/assert* invariant helper)")
				return true
			})
		}
	}
}
