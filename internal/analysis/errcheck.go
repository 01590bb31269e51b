package analysis

import (
	"go/ast"
	"go/types"
)

// ErrCheckAnalyzer flags calls whose error result is silently
// discarded. A sweep that cannot write its output file, an encoder
// that fails mid-row, or a cache write that never lands must surface —
// a silently dropped error turns into a truncated CSV that looks like
// a simulation result.
//
// Contract: output and cache writes that a full disk must not silently
// truncate. Finding history: when the rule landed, its findings were
// dropped errors on the output paths of flovsweep and the sweep
// engine, each now checked or explicitly discarded.
//
// Two discard forms are treated differently:
//
//   - assignments whose left-hand side is entirely blank (`_ = f()`,
//     `_, _ = g()`) are allowed: they are deliberate, visible and
//     greppable;
//   - a call used as a bare statement, a deferred/spawned call, or a
//     mixed assignment like `n, _ := f()` silently continues with the
//     error gone, and is flagged.
//
// Calls that cannot fail or are terminal-chatter by convention are
// allowlisted: fmt printing to stdout, fmt.Fprint* to os.Stdout,
// os.Stderr, strings.Builder or bytes.Buffer, and methods on those two
// builder types.
var ErrCheckAnalyzer = &Analyzer{
	Name: "errcheck",
	Doc:  "forbid silently discarded error results",
	Run:  runErrCheck,
}

// ignorableFuncs never need their error checked.
var ignorableFuncs = map[string]bool{
	"fmt.Print":   true,
	"fmt.Printf":  true,
	"fmt.Println": true,
}

// ignorableRecvTypes are receiver types whose methods cannot fail.
var ignorableRecvTypes = map[string]bool{
	"*strings.Builder": true,
	"*bytes.Buffer":    true,
	"strings.Builder":  true,
	"bytes.Buffer":     true,
}

// fprintFuncs take an io.Writer first argument; they are ignorable
// when that writer is ignorable.
var fprintFuncs = map[string]bool{
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
}

func runErrCheck(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					p.checkDiscardedCall(call, "result of")
				}
			case *ast.DeferStmt:
				p.checkDiscardedCall(n.Call, "deferred")
			case *ast.GoStmt:
				p.checkDiscardedCall(n.Call, "spawned")
			case *ast.AssignStmt:
				p.checkBlankErrAssign(n)
			}
			return true
		})
	}
}

// checkDiscardedCall flags a call statement that drops an error result.
func (p *Pass) checkDiscardedCall(call *ast.CallExpr, how string) {
	if !p.hasErrorResult(call) || p.errIgnorable(call) {
		return
	}
	p.Reportf(call.Pos(), "%s %s discards its error; handle it or assign it to _ explicitly", how, callDesc(p, call))
}

// checkBlankErrAssign flags mixed assignments that keep data results
// but blank the error.
func (p *Pass) checkBlankErrAssign(as *ast.AssignStmt) {
	allBlank := true
	for _, lhs := range as.Lhs {
		if ident, ok := lhs.(*ast.Ident); !ok || ident.Name != "_" {
			allBlank = false
			break
		}
	}
	if allBlank {
		return // explicit, visible discard
	}
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || p.errIgnorable(call) {
		return
	}
	results := p.resultTypes(call)
	if len(results) != len(as.Lhs) {
		return
	}
	for i, lhs := range as.Lhs {
		ident, ok := lhs.(*ast.Ident)
		if !ok || ident.Name != "_" || !isErrorType(results[i]) {
			continue
		}
		p.Reportf(lhs.Pos(), "error result of %s blanked while keeping the data results; check it", callDesc(p, call))
	}
}

// resultTypes returns the result types of a call (nil for conversions
// and calls with no results).
func (p *Pass) resultTypes(call *ast.CallExpr) []types.Type {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil // conversion, not a call
	}
	rt := p.Info.TypeOf(call)
	switch t := rt.(type) {
	case nil:
		return nil
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := 0; i < t.Len(); i++ {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		return []types.Type{t}
	}
}

// hasErrorResult reports whether the call returns at least one error.
func (p *Pass) hasErrorResult(call *ast.CallExpr) bool {
	for _, t := range p.resultTypes(call) {
		if isErrorType(t) {
			return true
		}
	}
	return false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// errIgnorable reports whether the callee is on the cannot-fail /
// terminal-chatter allowlist.
func (p *Pass) errIgnorable(call *ast.CallExpr) bool {
	fn := calleeFunc(p, call)
	if fn == nil {
		return false
	}
	name := fn.FullName()
	if ignorableFuncs[name] {
		return true
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if ignorableRecvTypes[sig.Recv().Type().String()] {
			return true
		}
	}
	if fprintFuncs[name] && len(call.Args) > 0 {
		return p.ignorableWriter(call.Args[0])
	}
	return false
}

// ignorableWriter reports whether an io.Writer argument cannot fail in
// a way worth handling: the process's own terminal streams, or the
// never-failing in-memory builders.
func (p *Pass) ignorableWriter(arg ast.Expr) bool {
	if sel, ok := arg.(*ast.SelectorExpr); ok {
		if pkgPath, ok := selectorPackage(p, sel); ok && pkgPath == "os" &&
			(sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr") {
			return true
		}
	}
	if t := p.TypeOf(arg); t != nil {
		switch t.String() {
		case "*strings.Builder", "*bytes.Buffer":
			return true
		}
	}
	return false
}

// calleeFunc resolves the called *types.Func, or nil for builtins,
// conversions and indirect calls through function values.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// callDesc names a call for diagnostics.
func callDesc(p *Pass, call *ast.CallExpr) string {
	if fn := calleeFunc(p, call); fn != nil {
		return fn.FullName()
	}
	return "call"
}
