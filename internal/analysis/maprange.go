package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// MapRangeAnalyzer flags ranging over a map when the loop body is
// order-sensitive: appending to a slice, accumulating floats or
// strings, sending on a channel, or writing output. Go randomizes map
// iteration order per run, so any of these lets that randomness leak
// into results — the exact nondeterminism the sweep cache and the
// equivalence tests cannot tolerate.
//
// Contract: bit-identical rows for identical job specs. Finding
// history: when the rule landed it caught a real bug, the PARSEC
// summary accumulating float sums in map order, so its headline numbers
// could differ between runs; the fix sorts the keys. The module-wide
// reach analyzer reuses the detection, mapRangeViolations, as one of
// its forbidden sources.
//
// The one allowed shape is the canonical sort idiom — a body that only
// collects the keys:
//
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort/slices sort of keys...
//
// (The analyzer cannot prove the subsequent sort; collecting keys and
// forgetting to sort them is still a bug, just not one it can see.)
// Order-independent bodies — counting, map-to-map writes, max/min over
// integers — are not flagged.
var MapRangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc:  "forbid order-sensitive bodies under map iteration",
	Run:  runMapRange,
}

// writerCalls are method/function names whose call inside a map-range
// body emits output or feeds a hash in iteration order.
var writerCalls = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": false, // pure, returns a value; order leaks only if accumulated
	"Encode": true, "Marshal": false,
}

// mapOrderViolation is one order-sensitive statement found under a
// map-range loop.
type mapOrderViolation struct {
	pos token.Pos
	msg string
}

func runMapRange(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			for _, v := range mapRangeViolations(p.Info, rs) {
				p.Reportf(v.pos, "%s", v.msg)
			}
			return true
		})
	}
}

// mapRangeViolations returns the order-sensitive statements under rs,
// or nil when rs is not a map range, is the canonical key-collect
// idiom, or has an order-independent body.
func mapRangeViolations(info *types.Info, rs *ast.RangeStmt) []mapOrderViolation {
	t := info.TypeOf(rs.X)
	if t == nil {
		return nil
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return nil
	}
	if isKeyCollectLoop(info, rs) {
		return nil
	}
	var out []mapOrderViolation
	body := rs.Body
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			out = append(out, mapOrderViolation{n.Pos(),
				"channel send inside map iteration publishes values in random order; iterate sorted keys"})
		case *ast.AssignStmt:
			out = append(out, mapRangeAssignViolations(info, body, n)...)
		case *ast.CallExpr:
			if name, ok := calleeName(n); ok && writerCalls[name] {
				out = append(out, mapOrderViolation{n.Pos(),
					fmt.Sprintf("%s call inside map iteration emits output in random order; iterate sorted keys", name)})
			}
		}
		return true
	})
	return out
}

// isKeyCollectLoop recognizes the sorted-iteration idiom: a body that
// is exactly `outer = append(outer, key)`.
func isKeyCollectLoop(info *types.Info, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltinAppend(info, call) || len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return false
	}
	keyIdent, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || info.Uses[arg] == nil || info.Uses[arg] != info.Defs[keyIdent] {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	dst, ok2 := call.Args[0].(*ast.Ident)
	return ok && ok2 && lhs.Name == dst.Name
}

// mapRangeAssignViolations flags appends and order-sensitive
// accumulation targeting variables that outlive the loop body.
func mapRangeAssignViolations(info *types.Info, body *ast.BlockStmt, as *ast.AssignStmt) []mapOrderViolation {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		var out []mapOrderViolation
		for _, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(info, call) {
				continue
			}
			if dst, ok := call.Args[0].(*ast.Ident); ok && declaredWithin(info, dst, body) {
				continue // scratch slice local to the body
			}
			out = append(out, mapOrderViolation{as.Pos(),
				"append inside map iteration builds a slice in random order; iterate sorted keys"})
		}
		return out
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := as.Lhs[0]
		t := info.TypeOf(lhs)
		isStr := false
		if b, ok := types.Default(t).Underlying().(*types.Basic); ok {
			isStr = b.Info()&types.IsString != 0
		}
		if !isFloat(t) && !(as.Tok == token.ADD_ASSIGN && isStr) {
			return nil // integer accumulation commutes; order cannot leak
		}
		if root := rootIdent(lhs); root != nil && declaredWithin(info, root, body) {
			return nil
		}
		return []mapOrderViolation{{as.Pos(),
			fmt.Sprintf("%s accumulation inside map iteration is order-sensitive for %s operands; iterate sorted keys",
				as.Tok, types.Default(t))}}
	}
	return nil
}

// declaredWithin reports whether ident's declaration lies inside node.
func declaredWithin(info *types.Info, ident *ast.Ident, node ast.Node) bool {
	obj := info.Uses[ident]
	if obj == nil {
		obj = info.Defs[ident]
	}
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// rootIdent returns the base identifier of an lvalue expression
// (x, x.f, x[i].f ...), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	ident, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := info.Uses[ident].(*types.Builtin)
	return ok && obj.Name() == "append"
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name, true
	case *ast.SelectorExpr:
		return fn.Sel.Name, true
	}
	return "", false
}

// isFloat reports whether t is (or defaults to) a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := types.Default(t).Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
