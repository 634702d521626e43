package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SpanBalance enforces the span lifecycle of internal/telemetry: a
// span minted by Tracer.StartTrace or Tracer.StartSpan must reach
// End() — an unended span silently vanishes from the deterministic
// dump, which reads as "this trace never happened" and is exactly the
// kind of observability hole that survives review. The check is
// ownership-based rather than path-sensitive: a started span must, in
// the same function, either
//
//   - have End() called on it (directly or at the end of an .Attr
//     chain), or
//   - escape — be passed to a call, stored into a field/map/slice,
//     captured by a composite literal, or returned — which transfers
//     the obligation to the new owner (the controller's per-switch
//     pushSpan field is the canonical example: the span ends at
//     ConfigAck time).
//
// A span discarded outright (expression statement, or assigned only to
// _) can never be ended and is always an error. Deliberate leaks
// (spans intentionally left open to be dropped at the horizon) carry a
// //lazyvet:allow spanbalance comment with the reason.
var SpanBalance = &Analyzer{
	Name: "spanbalance",
	Doc: "every telemetry span started must be ended or handed off; " +
		"a dropped span silently disappears from the trace dump",
	Run: runSpanBalance,
}

// spanCreators names the span-minting methods, keyed by
// "<pkg-suffix>.<Type>.<method>".
var spanCreators = map[string]bool{
	"internal/telemetry.Tracer.StartTrace": true,
	"internal/telemetry.Tracer.StartSpan":  true,
}

// spanChainMethods are *Span methods that return the receiver: a chain
// through them neither ends nor leaks the span.
var spanChainMethods = map[string]bool{"Attr": true}

func runSpanBalance(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpanBalance(pass, fd.Body)
		}
	}
	return nil
}

// methodKey renders a call's callee as "<pkg>.<Type>.<method>", or "".
func methodKey(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named, ok := derefType(sig.Recv().Type()).(*types.Named)
	if !ok {
		return ""
	}
	return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

func isSpanCreator(info *types.Info, call *ast.CallExpr) bool {
	full := methodKey(info, call)
	if full == "" {
		return false
	}
	for key := range spanCreators {
		if full == key || strings.HasSuffix(full, "/"+key) {
			return true
		}
	}
	return false
}

// spanMethodName returns the method name of a *Span method call made
// directly on expr (expr.<name>(...)), or "".
func spanMethodName(parent ast.Node, expr ast.Expr) string {
	sel, ok := parent.(*ast.SelectorExpr)
	if !ok || sel.X != expr {
		return ""
	}
	return sel.Sel.Name
}

// checkSpanBalance walks one function body tracking every span-creator
// call to its consumption.
func checkSpanBalance(pass *Pass, body *ast.BlockStmt) {
	// parents maps each node to its syntactic parent within the body.
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSpanCreator(pass.TypesInfo, call) {
			return true
		}

		// Follow .Attr chains outward: the chain's tip is the value
		// whose consumption decides the verdict.
		var tip ast.Expr = call
		for {
			parent := parents[tip]
			name := spanMethodName(parent, tip)
			if name == "" {
				break
			}
			outer, ok := parents[parent].(*ast.CallExpr)
			if !ok || outer.Fun != parent {
				break
			}
			if name == "End" {
				return true // chain ends the span inline
			}
			if !spanChainMethods[name] {
				return true // Context() etc. — treated as a handoff
			}
			tip = outer
		}

		switch parent := parents[tip].(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(),
				"span started and discarded: the result of %s must be ended or handed off, or the span never reaches the trace dump",
				creatorName(pass.TypesInfo, call))
		case *ast.AssignStmt:
			obj := spanAssignTarget(pass, parent, tip)
			if obj == nil {
				return true // stored into a field/map/etc.: handed off
			}
			if obj.Name() == "_" {
				pass.Reportf(call.Pos(),
					"span started and assigned to _: the result of %s must be ended or handed off",
					creatorName(pass.TypesInfo, call))
				return true
			}
			if !spanVarResolved(pass, body, obj) {
				pass.Reportf(call.Pos(),
					"span %s is never ended, passed, stored, or returned in this function; call End() on every path or hand the span off",
					obj.Name())
			}
		}
		// Other parents (call argument, return, composite literal, range
		// over — anything expression-positioned) hand the span off.
		return true
	})
}

// creatorName renders the creator method for a diagnostic.
func creatorName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.Name()
	}
	return "StartSpan"
}

// spanAssignTarget resolves the variable a span expression is assigned
// to, nil when the LHS is not a plain identifier (field, index — an
// escape).
func spanAssignTarget(pass *Pass, assign *ast.AssignStmt, rhs ast.Expr) types.Object {
	for i, r := range assign.Rhs {
		if r != rhs || i >= len(assign.Lhs) {
			continue
		}
		id, ok := assign.Lhs[i].(*ast.Ident)
		if !ok {
			return nil
		}
		if id.Name == "_" {
			return types.NewVar(id.Pos(), pass.Pkg, "_", nil)
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Uses[id]
	}
	return nil
}

// spanVarResolved reports whether a span-holding variable is ended or
// handed off anywhere in the function: End() (possibly at the tip of
// an .Attr chain), use as a call argument, storage into anything, a
// return, or capture by a composite literal all discharge the
// obligation. Presence anywhere suffices — the check is deliberately
// not path-sensitive (conditionals that End on one arm only are
// accepted; the deterministic-dump differential tests catch those).
func spanVarResolved(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	resolved := false
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if resolved {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		// Climb any .Attr chain rooted at this use.
		var tip ast.Expr = id
		for {
			parent := parents[tip]
			name := spanMethodName(parent, tip)
			if name == "" {
				break
			}
			outer, ok := parents[parent].(*ast.CallExpr)
			if !ok || outer.Fun != parent {
				break
			}
			if name == "End" {
				resolved = true
				return false
			}
			if !spanChainMethods[name] {
				return true // Context() and friends: a read, not a handoff
			}
			tip = outer
		}
		switch p := parents[tip].(type) {
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if arg == tip {
					resolved = true // passed: obligation transferred
				}
			}
		case *ast.AssignStmt:
			for _, r := range p.Rhs {
				if r == tip {
					resolved = true // stored somewhere else
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.IndexExpr:
			resolved = true
		}
		return true
	})
	return resolved
}
