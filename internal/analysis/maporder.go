package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags range-over-map loops whose bodies reach an
// order-sensitive sink: wire encoding (the openflow codec's equal-bits
// ⇒ equal-bytes delta channels), float accumulation (addition is not
// associative, so iteration order changes the accumulated bits the
// intensity-matrix differential tests pin), hashing, or a netsim send
// (messages enqueued in map order are delivered in map order,
// diverging run-to-run). The approved idiom is collect → sort →
// iterate the slice; see e.g. fib.LFIB.Entries.
//
// The walk is a conservative taint analysis within the function (loop
// variables plus one-hop assignments) with a one-level scan of
// same-package callees, so a helper that encodes or sends on the
// loop's behalf is still caught.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "forbid map-iteration order from reaching wire encoding, float accumulation, " +
		"hashing, or netsim sends without an intervening deterministic sort",
	Run: runMapOrder,
}

// mapOrderScopes guards the same subsystems as determinism: packages
// whose outputs the differential tests pin bit-for-bit.
var mapOrderScopes = []string{
	"internal/sim",
	"internal/netsim",
	"internal/fib",
	"internal/bloom",
	"internal/openflow",
	"internal/grouping",
	"internal/edge",
	"internal/controller",
	"internal/replay",
	"internal/chaos",
	"internal/trace",
	"internal/eval",
	"internal/rig",
	"internal/metrics",
	"internal/graph",
}

// sinkKind classifies what a call does with its inputs.
type sinkKind int

const (
	sinkNone sinkKind = iota
	// sinkEncode appends bytes to a wire encoding or marshals.
	sinkEncode
	// sinkHash feeds a hash state.
	sinkHash
	// sinkSend enqueues a message on the simulated network; order-
	// sensitive even when the payload is loop-invariant, because
	// delivery order follows enqueue order.
	sinkSend
)

func (k sinkKind) String() string {
	switch k {
	case sinkEncode:
		return "wire encoding"
	case sinkHash:
		return "hash accumulation"
	case sinkSend:
		return "netsim send"
	}
	return "sink"
}

func runMapOrder(pass *Pass) error {
	if !pathInScope(pass.Pkg.Path(), mapOrderScopes) {
		return nil
	}
	m := &mapOrderPass{pass: pass, calleeSinks: make(map[*types.Func]sinkKind)}
	m.indexFuncs()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			m.checkRange(rng)
			return true
		})
	}
	return nil
}

type mapOrderPass struct {
	pass *Pass
	// decls maps function objects of this package to their syntax, for
	// the one-level callee scan.
	decls map[*types.Func]*ast.FuncDecl
	// calleeSinks caches the strongest sink found directly inside a
	// same-package function body.
	calleeSinks map[*types.Func]sinkKind
}

func (m *mapOrderPass) indexFuncs() {
	m.decls = make(map[*types.Func]*ast.FuncDecl)
	for _, f := range m.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := m.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				m.decls[fn] = fd
			}
		}
	}
}

// checkRange walks one map-range body in source order, propagating
// taint from the loop variables and reporting order-sensitive sinks.
func (m *mapOrderPass) checkRange(rng *ast.RangeStmt) {
	info := m.pass.TypesInfo
	tainted := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				tainted[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				tainted[obj] = true
			}
		}
	}

	usesTaint := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && tainted[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			// Float accumulation: sum += f(v), sum = sum + v, and the
			// other op-assign forms. Addition over floats is not
			// associative, so map order changes the result bits.
			if m.floatAccum(s, usesTaint) {
				m.pass.Reportf(s.Pos(),
					"float accumulation in map-iteration order changes the result bits run to run; collect keys, sort, then accumulate")
			}
			// Taint propagation: any LHS assigned from tainted RHS.
			taintedRHS := false
			for _, r := range s.Rhs {
				if usesTaint(r) {
					taintedRHS = true
					break
				}
			}
			if taintedRHS {
				for _, l := range s.Lhs {
					if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
						if obj := info.Defs[id]; obj != nil {
							tainted[obj] = true
						} else if obj := info.Uses[id]; obj != nil {
							tainted[obj] = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			// Ranging over a tainted collection taints the inner loop
			// variables.
			if usesTaint(s.X) {
				for _, e := range []ast.Expr{s.Key, s.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						if obj := info.Defs[id]; obj != nil {
							tainted[obj] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			kind, via := m.callSink(s)
			if kind == sinkNone {
				return true
			}
			// Sends are order-sensitive regardless of payload; encode
			// and hash sinks only matter when loop-derived data flows
			// in.
			if kind != sinkSend {
				taintedArg := false
				for _, a := range s.Args {
					if usesTaint(a) {
						taintedArg = true
						break
					}
				}
				if sel, ok := s.Fun.(*ast.SelectorExpr); ok && usesTaint(sel.X) {
					taintedArg = true
				}
				if !taintedArg {
					return true
				}
			}
			m.pass.Reportf(s.Pos(),
				"%s inside range over a map iterates in nondeterministic order%s; sort deterministically before this point",
				kind, via)
		}
		return true
	})
}

// floatAccum reports whether the assignment accumulates into a float
// from tainted data.
func (m *mapOrderPass) floatAccum(s *ast.AssignStmt, usesTaint func(ast.Expr) bool) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	t := m.pass.TypesInfo.TypeOf(s.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return false
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return usesTaint(s.Rhs[0])
	case token.ASSIGN:
		// sum = sum + v form: LHS must reappear on the RHS.
		lhs, ok := s.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		obj := m.pass.TypesInfo.Uses[lhs]
		if obj == nil {
			return false
		}
		reappears := false
		ast.Inspect(s.Rhs[0], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && m.pass.TypesInfo.Uses[id] == obj {
				reappears = true
			}
			return !reappears
		})
		return reappears && usesTaint(s.Rhs[0])
	}
	return false
}

// callSink classifies a call expression; via carries " (via <callee>)"
// when the sink was found one level down in a same-package helper.
func (m *mapOrderPass) callSink(call *ast.CallExpr) (sinkKind, string) {
	fn := calleeFunc(m.pass.TypesInfo, call)
	if fn == nil {
		return sinkNone, ""
	}
	if k := directSink(fn, staticRecvPath(m.pass.TypesInfo, call)); k != sinkNone {
		return k, ""
	}
	// One level of same-package callees: a helper that encodes or
	// sends on the loop's behalf.
	if fn.Pkg() == m.pass.Pkg {
		if k := m.calleeSink(fn); k != sinkNone {
			return k, " (via " + fn.Name() + ")"
		}
	}
	return sinkNone, ""
}

// calleeSink scans a same-package function body for direct sinks, one
// level deep, cached.
func (m *mapOrderPass) calleeSink(fn *types.Func) sinkKind {
	if k, ok := m.calleeSinks[fn]; ok {
		return k
	}
	m.calleeSinks[fn] = sinkNone // cut recursion on cycles
	decl := m.decls[fn]
	kind := sinkNone
	if decl != nil {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sub := calleeFunc(m.pass.TypesInfo, call); sub != nil {
				if k := directSink(sub, staticRecvPath(m.pass.TypesInfo, call)); k > kind {
					kind = k
				}
			}
			return true
		})
	}
	m.calleeSinks[fn] = kind
	return kind
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, conversions, and function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// staticRecvPath resolves the package of the call receiver's static
// type, when the call is a method call on a named type. Interface
// methods are declared where the interface names them (hash.Hash64's
// Write comes from the io.Writer embedding), so the declaring package
// alone under-identifies the sink; the static receiver type is what
// the source actually says.
func staticRecvPath(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	if named, ok := derefType(t).(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path()
	}
	return ""
}

// directSink classifies a resolved callee; staticRecv is the package
// of the call's static receiver type ("" when not a method call on a
// named type).
func directSink(fn *types.Func, staticRecv string) sinkKind {
	pkg := fn.Pkg()
	if pkg == nil {
		return sinkNone
	}
	path := pkg.Path()
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	recvPath := staticRecv
	if recvPath == "" && sig != nil && sig.Recv() != nil {
		if named, ok := derefType(sig.Recv().Type()).(*types.Named); ok && named.Obj().Pkg() != nil {
			recvPath = named.Obj().Pkg().Path()
		} else {
			recvPath = path // interface methods: the declaring package
		}
	}

	// Wire encoding: the openflow codec's encode/put helpers and any
	// Marshal-style method.
	if path == "lazyctrl/internal/openflow" || strings.HasSuffix(path, "/internal/openflow") {
		if name == "Encode" || strings.HasPrefix(name, "encode") || strings.HasPrefix(name, "put") {
			return sinkEncode
		}
	}
	if strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "AppendBinary") {
		return sinkEncode
	}

	// Hash state: methods on hash/crypto package types (fnv, maphash,
	// sha256, ...) that fold data in.
	if recvPath == "hash" || strings.HasPrefix(recvPath, "hash/") || strings.HasPrefix(recvPath, "crypto") {
		switch {
		case strings.HasPrefix(name, "Write"), strings.HasPrefix(name, "Sum"),
			name == "AddUint64", name == "AddBytes", name == "AddString":
			return sinkHash
		}
	}

	// netsim sends: Env.Send and the underlay's send paths. Matching
	// the declaring package keeps user-defined Send methods (e.g. a
	// test double outside netsim) out of scope.
	if recvPath == "lazyctrl/internal/netsim" || strings.HasSuffix(recvPath, "/internal/netsim") {
		switch name {
		case "Send", "SendAfter", "Broadcast":
			return sinkSend
		}
	}
	return sinkNone
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
