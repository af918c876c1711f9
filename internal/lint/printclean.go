package lint

import (
	"go/ast"
	"go/types"
)

// isBuiltinObj reports whether obj resolves to a builtin (or is unknown,
// which for `print`/`println` can only be the builtin in compiling code).
func isBuiltinObj(obj types.Object) bool {
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// PrintClean forbids writing to the process's standard streams from
// library packages: only cmd/* and examples/* own the terminal. Library
// prints interleave nondeterministically across parallel sweep cells,
// corrupt machine-readable driver output (CSV/DOT exports),
// and cannot be captured by callers. Libraries return values and errors;
// rendering is the driver's job.
var PrintClean = &Analyzer{
	Name: "printclean",
	Doc: "forbid fmt.Print*/os.Stdout/os.Stderr and builtin print/println in internal packages; " +
		"only cmd/* and examples/* may write to the terminal",
	Scope: func(path string) bool { return underAny(path, "internal") },
	Run:   runPrintClean,
}

// bannedPrintCalls are fmt functions that write to os.Stdout implicitly.
var bannedPrintCalls = map[string]bool{
	"Print":   true,
	"Printf":  true,
	"Println": true,
}

func runPrintClean(p *Pass) {
	for _, f := range p.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				switch importPathOf(p.Info, file, n.X) {
				case "fmt":
					if bannedPrintCalls[n.Sel.Name] {
						p.Reportf(n.Pos(), "fmt.%s writes to os.Stdout from library code: return values and let cmd/* render them", n.Sel.Name)
					}
				case "os":
					if n.Sel.Name == "Stdout" || n.Sel.Name == "Stderr" {
						p.Reportf(n.Pos(), "os.%s referenced from library code: take an io.Writer instead", n.Sel.Name)
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "print" || id.Name == "println") && isBuiltinObj(p.ObjectOf(id)) {
					p.Reportf(n.Pos(), "builtin %s writes to stderr: use an error or an io.Writer", id.Name)
				}
			}
			return true
		})
	}
}
