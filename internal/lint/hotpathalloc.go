package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc is the interprocedural allocation-freedom rule. Functions
// annotated
//
//	//lint:hotpath
//
// in their doc comment are roots (the engine's round loop, its step and
// deliver bodies, and graph.BFSInto are the seeds); every module function
// reachable from a root through the call graph must be allocation-free.
// Flagged constructs: make/new, escaping composite literals (&T{...},
// slice and map literals), append to a non-scratch slice, interface
// boxing (explicit or implicit through calls/assignments/returns),
// capturing closures, go statements, string concatenation and
// string<->[]byte conversions, and fmt calls.
//
// "Scratch" slices — function parameters, struct fields, and locals
// derived from them by slicing/indexing — may be appended to: the
// repository's zero-alloc convention is that their owners preallocate
// capacity (pinned by the AllocsPerRun regression tests); hotpathalloc
// guards the *reuse pattern itself* from regressing three calls deep,
// which the runtime tests cannot see.
//
// A call to a module function that returns the address of one of its
// locals (rng.Source.Split's `c := ...; return &c`, or a wrapper that
// returns such a call) is allocation-free while the result stays in the
// caller's frame, where inlining keeps the local on the stack, and a heap
// allocation once the caller stores it beyond that frame: in a field, a
// slice or map element, through a pointer, or in a package variable.
// Such a store is flagged at the call.
//
// A //lint:allow hotpathalloc on a call-site line prunes traversal
// through that call (e.g. the engine's Machine.Step dispatch: machines
// and adversaries own their allocation budgets); on an allocation line it
// suppresses that finding (e.g. documented setup-phase allocations before
// a round loop).
var HotPathAlloc = &ModuleAnalyzer{
	Name: "hotpathalloc",
	Doc: "functions reachable from //lint:hotpath roots must be allocation-free " +
		"(no make/new/escaping literals, non-scratch append, boxing, capturing closures, string building, or fmt)",
	Run: runHotPathAlloc,
}

func runHotPathAlloc(mp *ModulePass) {
	roots := mp.Graph.Annotated("hotpath")
	reach := reachFrom(mp, roots)
	addr := localAddrReturners(mp.Graph)
	for _, n := range reach.order {
		checkAllocFree(mp, n, reach, addr)
	}
}

// localAddrReturners returns the module functions that return the address
// of one of their own locals or parameters, directly (`return &c`) or by
// returning a call to such a function, computed to a fixed point.
func localAddrReturners(g *CallGraph) map[*FuncNode]bool {
	out := map[*FuncNode]bool{}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Funcs() {
			if !out[n] && returnsLocalAddr(g, n, out) {
				out[n] = true
				changed = true
			}
		}
	}
	return out
}

// returnsLocalAddr reports whether one of n's return statements (outside
// function literals) yields &local or a call to a function in known.
func returnsLocalAddr(g *CallGraph, n *FuncNode, known map[*FuncNode]bool) bool {
	info := n.Pkg.Info
	found := false
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				switch e := ast.Unparen(res).(type) {
				case *ast.UnaryExpr:
					if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && e.Op == token.AND && isLocalVar(info, id, n.Decl) {
						found = true
					}
				case *ast.CallExpr:
					if c := staticCallee(g, info, e); c != nil && known[c] {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// isLocalVar reports whether id names a variable declared inside decl
// (a local or a parameter): its storage is the function's frame.
func isLocalVar(info *types.Info, id *ast.Ident, decl *ast.FuncDecl) bool {
	v, ok := info.ObjectOf(id).(*types.Var)
	return ok && !v.IsField() && v.Pos() >= decl.Pos() && v.Pos() < decl.End()
}

// staticCallee resolves a call to the module function it always invokes,
// or nil for builtins, conversions, interface dispatch, function values
// and functions outside the module.
func staticCallee(g *CallGraph, info *types.Info, call *ast.CallExpr) *FuncNode {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			if types.IsInterface(s.Recv()) {
				return nil
			}
			obj = s.Obj()
		} else {
			obj = info.Uses[fun.Sel]
		}
	}
	if f, ok := obj.(*types.Func); ok {
		return g.Nodes[f.Origin()]
	}
	return nil
}

// checkAllocFree scans one reachable function body for allocation sites;
// addr holds the functions whose result is a local's address.
func checkAllocFree(mp *ModulePass, n *FuncNode, reach *reachResult, addr map[*FuncNode]bool) {
	info := n.Pkg.Info
	scratch := scratchSlices(n)
	suffix := " [hot path: " + reach.path(n) + "]"
	report := func(pos token.Pos, format string, args ...interface{}) {
		mp.Reportf(pos, format+"%s", append(args, suffix)...)
	}
	sig, _ := n.Obj.Type().(*types.Signature)
	var walk func(node ast.Node, sig *types.Signature)
	walk = func(node ast.Node, sig *types.Signature) {
		ast.Inspect(node, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				if capturesVariables(info, x) {
					report(x.Pos(), "closure captures variables and allocates on the hot path")
				}
				litSig, _ := info.TypeOf(x).(*types.Signature)
				walk(x.Body, litSig)
				return false
			case *ast.GoStmt:
				report(x.Pos(), "go statement allocates a goroutine on the hot path")
			case *ast.CallExpr:
				checkCallAlloc(mp, info, scratch, x, report)
			case *ast.CompositeLit:
				switch info.TypeOf(x).Underlying().(type) {
				case *types.Slice:
					report(x.Pos(), "slice literal allocates on the hot path")
				case *types.Map:
					report(x.Pos(), "map literal allocates on the hot path")
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
						report(x.Pos(), "&composite literal escapes to the heap on the hot path")
					}
				}
			case *ast.BinaryExpr:
				if x.Op == token.ADD && isStringType(info.TypeOf(x)) {
					report(x.Pos(), "string concatenation allocates on the hot path")
				}
			case *ast.AssignStmt:
				if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info.TypeOf(x.Lhs[0])) {
					report(x.Pos(), "string += allocates on the hot path")
				}
				if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
					for i, lhs := range x.Lhs {
						if boxes(info, info.TypeOf(lhs), x.Rhs[i]) {
							report(x.Rhs[i].Pos(), "assignment boxes a %s into an interface on the hot path", info.TypeOf(x.Rhs[i]))
						}
						call, ok := ast.Unparen(x.Rhs[i]).(*ast.CallExpr)
						if !ok {
							continue
						}
						if c := staticCallee(mp.Graph, info, call); c != nil && addr[c] && !storesInFrame(info, lhs, n.Decl) {
							report(call.Pos(), "%s returns the address of a local, and storing it in %s moves it to the heap on the hot path",
								displayName(c.Obj), types.ExprString(lhs))
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if i < len(x.Values) {
						if obj := info.ObjectOf(name); obj != nil && boxes(info, obj.Type(), x.Values[i]) {
							report(x.Values[i].Pos(), "declaration boxes a %s into an interface on the hot path", info.TypeOf(x.Values[i]))
						}
					}
				}
			case *ast.ReturnStmt:
				if sig != nil && sig.Results().Len() == len(x.Results) {
					for i, res := range x.Results {
						if boxes(info, sig.Results().At(i).Type(), res) {
							report(res.Pos(), "return boxes a %s into an interface on the hot path", info.TypeOf(res))
						}
					}
				}
			}
			return true
		})
	}
	walk(n.Decl.Body, sig)
}

// storesInFrame reports whether assigning to lhs keeps the value in the
// function's own frame: a blank, a local variable, or a field or array
// element of one reached without a pointer. Anything reached through a
// pointer, slice or map, and package variables, are beyond the frame.
func storesInFrame(info *types.Info, lhs ast.Expr, decl *ast.FuncDecl) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return e.Name == "_" || isLocalVar(info, e, decl)
	case *ast.SelectorExpr:
		s, ok := info.Selections[e]
		return ok && s.Kind() == types.FieldVal && !s.Indirect() && storesInFrame(info, e.X, decl)
	case *ast.IndexExpr:
		_, isArray := info.TypeOf(e.X).Underlying().(*types.Array)
		return isArray && storesInFrame(info, e.X, decl)
	}
	return false
}

// checkCallAlloc handles allocation through call syntax: builtins
// (make/new/append), type conversions, fmt calls, and implicit interface
// boxing of arguments.
func checkCallAlloc(mp *ModulePass, info *types.Info, scratch map[*types.Var]bool, call *ast.CallExpr, report func(token.Pos, string, ...interface{})) {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates on the hot path")
			case "new":
				report(call.Pos(), "new allocates on the hot path")
			case "append":
				if len(call.Args) > 0 && !scratchExpr(info, scratch, call.Args[0]) {
					report(call.Pos(), "append to a non-scratch slice may grow the heap on the hot path (reuse a preallocated buffer)")
				}
			}
			return
		}
	}
	tvFun := info.Types[fun]
	if tvFun.IsType() {
		checkConversionAlloc(info, call, tvFun.Type, report)
		return
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.ObjectOf(id).(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				report(call.Pos(), "fmt.%s formats and allocates on the hot path", sel.Sel.Name)
				return // boxing its variadic args is implied; one finding per line suffices
			}
		}
	}
	sig, ok := tvFun.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // xs... passes the slice through, no per-element boxing
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(info, pt, arg) {
			report(arg.Pos(), "argument boxes a %s into interface parameter on the hot path", info.TypeOf(arg))
		}
	}
}

// checkConversionAlloc flags conversions that copy or box.
func checkConversionAlloc(info *types.Info, call *ast.CallExpr, dst types.Type, report func(token.Pos, string, ...interface{})) {
	if len(call.Args) != 1 {
		return
	}
	src := info.TypeOf(call.Args[0])
	if src == nil || dst == nil {
		return
	}
	switch {
	case types.IsInterface(dst) && !types.IsInterface(src):
		if boxes(info, dst, call.Args[0]) {
			report(call.Pos(), "conversion boxes a %s into an interface on the hot path", src)
		}
	case isStringType(dst) && isByteOrRuneSlice(src):
		report(call.Pos(), "[]byte/[]rune -> string conversion copies on the hot path")
	case isByteOrRuneSlice(dst) && isStringType(src):
		report(call.Pos(), "string -> []byte/[]rune conversion copies on the hot path")
	}
}

// boxes reports whether assigning src to an interface-typed destination
// heap-allocates: interface and nil sources don't box, and pointer-shaped
// values (pointers, channels, maps, funcs, unsafe pointers) fit the
// interface word without allocating.
func boxes(info *types.Info, dst types.Type, src ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := info.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	if types.IsInterface(tv.Type) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if tv.Type.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// capturesVariables reports whether a function literal references
// variables declared outside it (other than package-level state): such
// closures allocate their environment. Non-capturing literals compile to
// static function values and are free.
func capturesVariables(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit, func(x ast.Node) bool {
		if captures {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		scope := v.Parent()
		if scope == nil {
			return true
		}
		// Package-level variables live in a package scope whose parent is
		// the universe; anything deeper is function-local.
		if scope.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
		}
		return true
	})
	return captures
}

// scratchSlices classifies the function's slice-typed variables by
// provenance: parameters, the receiver, and locals derived from them (or
// from struct fields) by slicing and indexing are "scratch" — storage the
// caller or the long-lived state owns and preallocates. Appending to
// scratch is the repository's buffer-reuse idiom; appending to anything
// else is a fresh heap slice.
func scratchSlices(n *FuncNode) map[*types.Var]bool {
	info := n.Pkg.Info
	scratch := map[*types.Var]bool{}
	tainted := map[*types.Var]bool{}
	if sig, ok := n.Obj.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			scratch[recv] = true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			scratch[sig.Params().At(i)] = true
		}
	}
	// Propagate through simple assignments; two passes handle forward
	// chains, and any non-scratch assignment permanently taints the var.
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			stmt, ok := x.(*ast.AssignStmt)
			if !ok || len(stmt.Lhs) != len(stmt.Rhs) {
				return true
			}
			for i, lhs := range stmt.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.ObjectOf(id).(*types.Var)
				if !ok {
					continue
				}
				if scratchRHS(info, scratch, stmt.Rhs[i], v) {
					if !tainted[v] {
						scratch[v] = true
					}
				} else {
					tainted[v] = true
					delete(scratch, v)
				}
			}
			return true
		})
	}
	return scratch
}

// scratchRHS decides whether an assignment RHS preserves scratchness.
// self permits the x = append(x, ...) / x = x[:0] self-reference idiom.
func scratchRHS(info *types.Info, scratch map[*types.Var]bool, e ast.Expr, self *types.Var) bool {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		// x = append(x, ...) keeps x's provenance.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				return scratchExpr(info, scratch, call.Args[0])
			}
		}
		return false
	}
	return scratchExpr(info, scratch, e)
}

// scratchExpr reports whether an expression denotes scratch storage.
func scratchExpr(info *types.Info, scratch map[*types.Var]bool, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := info.ObjectOf(e).(*types.Var)
		return ok && scratch[v]
	case *ast.SliceExpr:
		// A full slice expression whose max is its high bound, like
		// x[:0:0], leaves no capacity: appending to it always allocates.
		if e.Slice3 && types.ExprString(e.High) == types.ExprString(e.Max) {
			return false
		}
		return scratchExpr(info, scratch, e.X)
	case *ast.IndexExpr:
		return scratchExpr(info, scratch, e.X)
	case *ast.SelectorExpr:
		// A struct-field slice is long-lived state its owner preallocates.
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return true
		}
		return false
	}
	return false
}
