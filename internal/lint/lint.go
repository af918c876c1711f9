// Package lint is a stdlib-only static-analysis framework enforcing the
// repository's model invariants: the paper's lower-bound reductions
// (Theorems 6-7) are sound only for public-coin CONGEST executions, so
// protocol code must draw randomness from internal/rng, encode messages
// through internal/bitio, and never let nondeterminism (wall clocks,
// math/rand, map iteration order) leak into simulation results.
//
// The framework deliberately uses only go/parser, go/ast, and go/types —
// no golang.org/x/tools dependency — so the module stays dependency-free.
// Two kinds of rules exist: per-package Analyzers (registered in
// DefaultAnalyzers) inspect one package at a time, and ModuleAnalyzers
// (registered in DefaultModuleAnalyzers) run over a whole-module
// call graph built by LoadModule/RunModule — see callgraph.go,
// hotpathalloc.go, and puritytaint.go. Both kinds are run by cmd/dynlint
// as well as by this package's own table-driven tests over testdata
// corpora.
//
// Any finding can be suppressed by a comment
//
//	//lint:allow <rule>[,<rule>...] <reason>
//
// placed either on the flagged line or, as a standalone comment line, on
// the line directly above it. A trailing allow (sharing its line with
// code) suppresses only its own line. The first field is one rule name or
// a comma-separated list (for lines that several rules flag at once); the
// reason is free text but should name the invariant argument
// (e.g. "callers sort; order documented as unspecified"). For the
// interprocedural rules, an allow on a call-site line additionally prunes
// the call-graph edges leaving that line, so one escape both silences the
// line and stops reachability through it. The staleallow check reports
// directives that end up suppressing nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders a finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Analyzer is one named per-package rule. Run inspects a loaded package
// through the Pass and reports findings; Scope decides which import paths
// RunAll and the driver apply the rule to (the package-level Run bypasses
// it).
type Analyzer struct {
	Name  string
	Doc   string
	Scope func(importPath string) bool
	Run   func(*Pass)
}

// Pass hands an analyzer one loaded package plus a reporting sink.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	allows   *allowIndex
	findings *[]Finding
}

// Reportf records a finding at pos unless an allow comment suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if d := p.allows.find(p.analyzer.Name, position.Filename, position.Line); d != nil {
		d.used = true
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:     position,
		Rule:    p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-safe shorthand for the package's type information.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// Run applies one analyzer to a loaded package and returns its findings,
// already sorted by position.
func Run(a *Analyzer, pkg *Package) []Finding {
	return runWith(a, pkg, buildAllowIndex(pkg.Fset, pkg.Files))
}

// runWith is Run with a caller-supplied allow index, so module-wide runs
// can share one index (and its usage tracking) across all analyzers.
func runWith(a *Analyzer, pkg *Package, allows *allowIndex) []Finding {
	var findings []Finding
	pass := &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		analyzer: a,
		allows:   allows,
		findings: &findings,
	}
	a.Run(pass)
	sortFindings(findings)
	return findings
}

// RunAll applies every analyzer whose Scope accepts the package's import
// path.
func RunAll(analyzers []*Analyzer, pkg *Package) []Finding {
	allows := buildAllowIndex(pkg.Fset, pkg.Files)
	var findings []Finding
	for _, a := range analyzers {
		if a.Scope != nil && !a.Scope(pkg.Path) {
			continue
		}
		findings = append(findings, runWith(a, pkg, allows)...)
	}
	sortFindings(findings)
	return findings
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return fs[i].Rule < fs[j].Rule
	})
}

// allowDirective is one parsed //lint:allow comment. used flips when the
// directive suppresses a finding or prunes a call-graph edge; staleallow
// reports directives that never fire.
type allowDirective struct {
	Rules  []string
	Reason string
	File   string
	Line   int
	// Standalone marks a comment alone on its source line; only these
	// extend their suppression to the line directly below. A trailing
	// allow covers exactly its own line.
	Standalone bool
	Pos        token.Pos

	used bool
}

// allowIndex resolves (rule, file, line) to the directive suppressing it.
type allowIndex struct {
	directives []*allowDirective
	byRule     map[string]map[string]map[int]*allowDirective
}

// buildAllowIndex scans the files' comments for //lint:allow directives.
// Standalone-ness is decided from the source text (the line prefix before
// the comment must be blank); unreadable files fall back to standalone,
// the historic, broader behavior.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	idx := &allowIndex{byRule: map[string]map[string]map[int]*allowDirective{}}
	lineCache := map[string][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				d := &allowDirective{
					Rules:      strings.Split(fields[0], ","),
					Reason:     strings.Join(fields[1:], " "),
					File:       pos.Filename,
					Line:       pos.Line,
					Standalone: standaloneComment(lineCache, pos),
					Pos:        c.Pos(),
				}
				idx.directives = append(idx.directives, d)
				for _, rule := range d.Rules {
					idx.put(rule, d.File, d.Line, d)
					if d.Standalone {
						idx.put(rule, d.File, d.Line+1, d)
					}
				}
			}
		}
	}
	return idx
}

func (idx *allowIndex) put(rule, file string, line int, d *allowDirective) {
	byFile := idx.byRule[rule]
	if byFile == nil {
		byFile = map[string]map[int]*allowDirective{}
		idx.byRule[rule] = byFile
	}
	byLine := byFile[file]
	if byLine == nil {
		byLine = map[int]*allowDirective{}
		byFile[file] = byLine
	}
	if _, taken := byLine[line]; !taken {
		byLine[line] = d
	}
}

// find returns the directive suppressing rule at file:line, or nil.
func (idx *allowIndex) find(rule, file string, line int) *allowDirective {
	if idx == nil {
		return nil
	}
	return idx.byRule[rule][file][line]
}

// standaloneComment reports whether the comment at pos is alone on its
// source line (preceded by whitespace only).
func standaloneComment(cache map[string][]string, pos token.Position) bool {
	lines, ok := cache[pos.Filename]
	if !ok {
		if data, err := os.ReadFile(pos.Filename); err == nil {
			lines = strings.Split(string(data), "\n")
		}
		cache[pos.Filename] = lines
	}
	if lines == nil || pos.Line-1 >= len(lines) {
		return true
	}
	prefix := lines[pos.Line-1]
	if pos.Column-1 <= len(prefix) {
		prefix = prefix[:pos.Column-1]
	}
	return strings.TrimSpace(prefix) == ""
}

// DefaultAnalyzers returns the per-package rule set in a stable order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Determinism,
		MapOrder,
		CongestSend,
		PanicFree,
		PrintClean,
	}
}

// underAny reports whether the import path has any of the given
// slash-separated suff-trees as a segment-aligned infix: the rule scopes
// are written against "internal/..." so they work for any module path.
func underAny(path string, trees ...string) bool {
	for _, t := range trees {
		if strings.HasSuffix(path, "/"+t) || strings.Contains(path, "/"+t+"/") || path == t || strings.HasPrefix(path, t+"/") {
			return true
		}
	}
	return false
}
