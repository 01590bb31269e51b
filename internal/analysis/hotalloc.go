package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// HotAllocAnalyzer reports every allocation site transitively reachable
// from the simulator's per-cycle hot paths: the network step, the router
// pipeline, and the sim.Delay channel operations. The steady-state cycle
// kernel is meant to run allocation-free — a stray allocation on these
// paths costs GC pressure multiplied by cycles×routers×sweep points —
// so each site is reported with the full call chain from the hot root,
// and intentional ones carry a //flovlint:allow hotalloc suppression
// with the justification.
//
// Reported allocation forms:
//
//   - make and new;
//   - growing append — append that can reallocate its backing array.
//     Amortized refills are exempt: appending a slice to itself when the
//     slice is persistent state (x.f = append(x.f, ...) or
//     x[i] = append(x[i], ...)), and appending onto a length-reset
//     prefix (append(x[:0], ...)). A self-append of a bare local is
//     still reported: the local's backing array is fresh per call.
//   - interface boxing: a concrete value whose representation is not a
//     single pointer word (struct, int, string, ...) passed to an
//     interface parameter, converted to an interface type, or assigned
//     to an interface variable. Pointers, channels, maps and funcs are
//     pointer-shaped and box without allocating.
//   - fmt calls, which allocate internally; boxing of their own
//     arguments is folded into the one finding at the call.
//   - closures: a func literal capturing variables, unless it is
//     invoked immediately or passed directly as a call argument (the
//     callback is assumed not to escape — a documented approximation);
//     a go statement's literal is always reported.
//
// Two code regions are exempt automatically, findings and call edges
// both: panic arguments (a path that allocates while crashing is not a
// hot path) and blocks guarded by the internal/assert debug gate
// (`if assert.On { ... }` is compiled away outside flovdebug builds).
var HotAllocAnalyzer = &ModuleAnalyzer{
	Name: "hotalloc",
	Doc:  "report every allocation site reachable from the sim hot-path roots",
	Run:  runHotAlloc,
}

// DefaultHotAllocRoots returns the per-cycle hot paths the steady-state
// zero-allocation goal covers: the whole-network step, the router
// pipeline tick, and the Delay queue operations links and NIs run every
// cycle. Push/Pop are reachable from Step too; naming them keeps them
// covered under partial loads like `flovlint ./internal/sim`.
func DefaultHotAllocRoots() []RootSpec {
	return []RootSpec{
		{Pkg: "flov/internal/network", Recv: "Network", Func: "Step"},
		{Pkg: "flov/internal/router", Recv: "Router", Func: "Tick"},
		{Pkg: "flov/internal/sim", Recv: "Delay", Func: "Push"},
		{Pkg: "flov/internal/sim", Recv: "Delay", Func: "PushAfter"},
		{Pkg: "flov/internal/sim", Recv: "Delay", Func: "Pop"},
		{Pkg: "flov/internal/sim", Recv: "Delay", Func: "Drain"},
	}
}

func runHotAlloc(p *ModulePass) {
	m := p.Module
	roots := m.HotRoots
	if roots == nil {
		roots = DefaultHotAllocRoots()
	}
	graph := m.Graph()

	// reported dedups sites reachable from several roots: the first chain
	// is proof enough. Alloc contexts are per-body syntax, so they are
	// shared across roots.
	reported := make(map[token.Pos]bool)
	ctxs := make(map[*FuncNode]*allocContext)
	ctxOf := func(n *FuncNode) *allocContext {
		if c, ok := ctxs[n]; ok {
			return c
		}
		var c *allocContext
		if n.Decl != nil && n.Decl.Body != nil {
			c = newAllocContext(n.Pkg.Info, n.Decl.Body)
		}
		ctxs[n] = c
		return c
	}
	for _, root := range roots {
		start := findRoot(graph, root)
		if start == nil {
			// Same contract as reach: a root in a loaded package that no
			// longer resolves is rot in the root list — fail loudly.
			if pkg, ok := m.pkg(root.Pkg); ok {
				p.Reportf(pkg.Files[0].Package, "hotalloc root %s not found; update the root list", root)
			}
			continue
		}
		parent := make(map[*FuncNode]*FuncNode)
		visited := map[*FuncNode]bool{start: true}
		queue := []*FuncNode{start}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			ctx := ctxOf(n)
			if ctx != nil {
				scanAllocs(p, n, ctx, chainString(parent, start, n), reported)
			}
			for _, e := range n.Callees {
				if ctx != nil && ctx.inCold(e.Pos) {
					continue // call only happens on a panic/debug path
				}
				if !visited[e.Callee] {
					visited[e.Callee] = true
					parent[e.Callee] = n
					queue = append(queue, e.Callee)
				}
			}
		}
	}
}

// scanAllocs reports every allocation site in one function body, tagged
// with the call chain that reached it.
func scanAllocs(p *ModulePass, n *FuncNode, ctx *allocContext, chain string, reported map[token.Pos]bool) {
	info := n.Pkg.Info

	report := func(pos token.Pos, desc string) {
		if reported[pos] || ctx.inCold(pos) {
			return
		}
		reported[pos] = true
		p.Reportf(pos, "hot-path allocation: %s (%s)", desc, chain)
	}

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			scanCall(info, ctx, node, report)
		case *ast.AssignStmt:
			if len(node.Lhs) == len(node.Rhs) {
				for i, rhs := range node.Rhs {
					checkBoxing(info, ctx, lhsType(info, node.Lhs[i]), rhs, report)
				}
			}
		case *ast.ValueSpec:
			if node.Type != nil {
				if tv, ok := info.Types[node.Type]; ok {
					for _, v := range node.Values {
						checkBoxing(info, ctx, tv.Type, v, report)
					}
				}
			}
		case *ast.FuncLit:
			scanFuncLit(info, ctx, node, report)
		}
		return true
	})
}

// scanCall classifies one call expression: builtin allocators, fmt
// calls, conversions to interface, and boxing at interface parameters.
func scanCall(info *types.Info, ctx *allocContext, call *ast.CallExpr, report func(token.Pos, string)) {
	fun := ast.Unparen(call.Fun)

	// Conversions: T(v) where T is an interface type boxes v.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkBoxing(info, ctx, tv.Type, call.Args[0], report)
		}
		return
	}

	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make")
			case "new":
				report(call.Pos(), "new")
			case "append":
				if !ctx.amortized[call] {
					report(call.Pos(), "growing append")
				}
			}
			return
		}
	}

	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if path, ok := selectorPkgPath(info, sel); ok && path == "fmt" {
			report(call.Pos(), "fmt."+sel.Sel.Name+" call")
			return // arg boxing is folded into this finding
		}
	}

	sig, ok := info.Types[fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through whole, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		checkBoxing(info, ctx, pt, arg, report)
	}
}

// scanFuncLit reports closures that allocate: literals with captured
// variables that are stored rather than invoked or passed directly, and
// every go-statement literal.
func scanFuncLit(info *types.Info, ctx *allocContext, lit *ast.FuncLit, report func(token.Pos, string)) {
	if ctx.goLits[lit] {
		report(lit.Pos(), "closure launched by go statement")
		return
	}
	if ctx.callArgLits[lit] {
		return // assumed non-escaping callback / immediate invocation
	}
	if n := captureCount(info, lit); n > 0 {
		word := "variables"
		if n == 1 {
			word = "variable"
		}
		report(lit.Pos(), strconv.Itoa(n)+" captured "+word+" escape into stored closure")
	}
}

// checkBoxing reports arg when assigning it to target requires heap-
// boxing a concrete value into an interface.
func checkBoxing(info *types.Info, ctx *allocContext, target types.Type, arg ast.Expr, report func(token.Pos, string)) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := info.Types[ast.Unparen(arg)]
	if !ok || tv.Type == nil {
		return
	}
	at := tv.Type
	if bt, ok := at.(*types.Basic); ok && bt.Info()&types.IsUntyped != 0 {
		if bt.Kind() == types.UntypedNil {
			return
		}
		at = types.Default(at)
	}
	if _, ok := at.Underlying().(*types.Interface); ok {
		return // interface-to-interface, no new box
	}
	if pointerShaped(at) {
		return
	}
	report(arg.Pos(), "interface boxing of "+at.String())
}

// pointerShaped reports whether values of t fit the interface data word
// without allocating.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// allocContext is the per-body syntactic context the classifiers need:
// amortized appends, cold regions (panic arguments, assert-gated debug
// blocks), and how each func literal is used.
type allocContext struct {
	amortized   map[*ast.CallExpr]bool
	coldRanges  [][2]token.Pos
	callArgLits map[*ast.FuncLit]bool
	goLits      map[*ast.FuncLit]bool
}

func newAllocContext(info *types.Info, body *ast.BlockStmt) *allocContext {
	ctx := &allocContext{
		amortized:   make(map[*ast.CallExpr]bool),
		callArgLits: make(map[*ast.FuncLit]bool),
		goLits:      make(map[*ast.FuncLit]bool),
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call := asAppendCall(info, rhs)
				if call == nil {
					continue
				}
				// x.f = append(x.f, ...) refills persistent state; the
				// same shape on a bare local grows a fresh array per call.
				switch n.Lhs[i].(type) {
				case *ast.SelectorExpr, *ast.IndexExpr:
					if sameExpr(n.Lhs[i], call.Args[0]) {
						ctx.amortized[call] = true
					}
				}
			}
		case *ast.CallExpr:
			if call := asAppendCall(info, n); call != nil && len(call.Args) > 0 {
				if se, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr); ok && zeroHigh(info, se) {
					ctx.amortized[call] = true // append(x[:0], ...) refill
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					ctx.coldRanges = append(ctx.coldRanges, [2]token.Pos{n.Lparen, n.Rparen})
				}
			}
			for _, arg := range n.Args {
				if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					ctx.callArgLits[fl] = true
				}
			}
			if fl, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				ctx.callArgLits[fl] = true // immediately invoked
			}
		case *ast.GoStmt:
			if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				ctx.goLits[fl] = true
			}
		case *ast.IfStmt:
			if assertGated(info, n.Cond) {
				ctx.coldRanges = append(ctx.coldRanges, [2]token.Pos{n.Body.Lbrace, n.Body.Rbrace})
			}
		}
		return true
	})
	return ctx
}

// assertGated reports whether cond references the internal/assert
// compile-time debug gate, marking the guarded block dead in release
// builds.
func assertGated(info *types.Info, cond ast.Expr) bool {
	gated := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if path, ok := selectorPkgPath(info, sel); ok && strings.HasSuffix(path, "internal/assert") {
				gated = true
			}
		}
		return !gated
	})
	return gated
}

// inCold reports whether pos falls inside a panic argument list or an
// assert-gated debug block.
func (ctx *allocContext) inCold(pos token.Pos) bool {
	for _, r := range ctx.coldRanges {
		if r[0] < pos && pos < r[1] {
			return true
		}
	}
	return false
}

// asAppendCall returns e as a call to the append builtin, or nil.
func asAppendCall(info *types.Info, e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	return call
}

// zeroHigh reports whether se is a length-reset reslice x[...:0].
func zeroHigh(info *types.Info, se *ast.SliceExpr) bool {
	if se.High == nil {
		return false
	}
	tv, ok := info.Types[se.High]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// sameExpr reports structural equality for the expression shapes a
// self-append target can take: identifiers, field selections and index
// expressions over them.
func sameExpr(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch a := a.(type) {
	case *ast.Ident:
		b, ok := b.(*ast.Ident)
		return ok && a.Name == b.Name
	case *ast.SelectorExpr:
		b, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == b.Sel.Name && sameExpr(a.X, b.X)
	case *ast.IndexExpr:
		b, ok := b.(*ast.IndexExpr)
		return ok && sameExpr(a.X, b.X) && sameExpr(a.Index, b.Index)
	case *ast.BasicLit:
		b, ok := b.(*ast.BasicLit)
		return ok && a.Kind == b.Kind && a.Value == b.Value
	}
	return false
}

// captureCount counts distinct variables a func literal captures from
// its enclosing function.
func captureCount(info *types.Info, lit *ast.FuncLit) int {
	captured := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captures, and anything declared
		// inside the literal (params included) is its own.
		if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured[v] = true
		}
		return true
	})
	return len(captured)
}

// lhsType resolves the static type of an assignment target (including
// newly declared := targets).
func lhsType(info *types.Info, lhs ast.Expr) types.Type {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if obj, ok := info.Defs[id]; ok && obj != nil {
			return obj.Type()
		}
		if obj, ok := info.Uses[id]; ok {
			return obj.Type()
		}
	}
	if tv, ok := info.Types[lhs]; ok {
		return tv.Type
	}
	return nil
}
