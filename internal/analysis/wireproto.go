package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireProto cross-checks the openflow codec and its apply switches:
//
//  1. the codec's msgTypes table (name + constructor per wire code) has
//     an entry for every MsgType constant and an entry only for them (a
//     type missing from it neither decodes nor stringifies — it would
//     log as MsgType(31));
//  2. every MsgType constant is assigned a receiver in the handler
//     table below — edge, controller, or both — and the HandleMessage
//     type-switch of each handler package actually carries a case for
//     everything assigned to it (the edge's Batch apply path recurses
//     through its HandleMessage, so switch coverage is batch-apply
//     coverage); so does the package's admit type switch, its
//     admission table, and HandleMessage's first statement is the
//     guard that runs it;
//  3. count fields decoded from the wire (uvarint/u16/u32/u64/count)
//     are bounds-checked against the remaining payload before they size
//     an allocation — a crafted count must not reach make(). A decoded
//     count is a variable assigned from a count primitive's result
//     (`n := int(r.u32())`) or one whose address a count primitive
//     fills (`w = count(w, form, &n)`, the codec's list).
//
// Adding a wire message therefore fails the build until the codec
// table, the handler table, and the apply switch and admission table
// of the receiving side all agree — the cross-package drift this catches used to surface
// only as a silently dropped message in a chaos run.
var WireProto = &Analyzer{
	Name: "wireproto",
	Doc: "cross-check codec registration (msgTypes), apply-switch and admission-table " +
		"coverage in edge/controller, and pre-allocation bounds checks on decoded counts",
	Run: runWireProto,
}

// Handler assignment for each wire message type: which side's
// HandleMessage must carry a case for it. Every type has a receiver:
// the codec holds only messages some node sends.
const (
	handledByEdge       = 1 << 0
	handledByController = 1 << 1
)

// wireprotoHandlers maps MsgType constant names to their required
// receivers. The analyzer fails the codec package when a constant is
// missing here, and fails edge/controller when an assigned case is
// missing from their type switch.
var wireprotoHandlers = map[string]int{
	"TypePacketIn":      handledByController,
	"TypePacketOut":     handledByEdge,
	"TypeFlowMod":       handledByEdge,
	"TypeGroupConfig":   handledByEdge,
	"TypeLFIBUpdate":    handledByController,
	"TypeGFIBUpdate":    handledByEdge,
	"TypeStateReport":   handledByEdge | handledByController,
	"TypeKeepAlive":     handledByEdge | handledByController,
	"TypeARPRelay":      handledByEdge,
	"TypeBatch":         handledByEdge,
	"TypeGFIBDelta":     handledByEdge,
	"TypeGFIBNack":      handledByEdge | handledByController,
	"TypePacketInBurst": handledByController,
	"TypeFailureReport": handledByController,
	"TypeConfigAck":     handledByController,
	// Controller replication: the new master's role announcement reaches
	// every edge and the peer replica; journal records flow only between
	// replicas.
	"TypeRoleAnnounce":    handledByEdge | handledByController,
	"TypeStateSyncRecord": handledByController,
}

// Package roles. Tests extend these with fixture paths.
var (
	wireprotoCodecScopes      = []string{"internal/openflow"}
	wireprotoEdgeScopes       = []string{"internal/edge"}
	wireprotoControllerScopes = []string{"internal/controller"}
)

func runWireProto(pass *Pass) error {
	switch {
	case pathInScope(pass.Pkg.Path(), wireprotoCodecScopes):
		checkCodec(pass)
		checkDecodeBounds(pass)
	case pathInScope(pass.Pkg.Path(), wireprotoEdgeScopes):
		checkApplySwitch(pass, handledByEdge)
	case pathInScope(pass.Pkg.Path(), wireprotoControllerScopes):
		checkApplySwitch(pass, handledByController)
	}
	return nil
}

// --- codec registration ---

func checkCodec(pass *Pass) {
	msgType, _ := pass.Pkg.Scope().Lookup("MsgType").(*types.TypeName)
	if msgType == nil {
		pass.Reportf(token.NoPos, "codec package %s has no MsgType type", pass.Pkg.Path())
		return
	}

	// All MsgType constants, by name.
	consts := make(map[string]*types.Const)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && c.Type() == msgType.Type() {
			consts[name] = c
		}
	}

	// Keys of the msgTypes composite literal. A key that is not a
	// MsgType constant is an entry no constant names.
	entries := make(map[string]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, n := range vs.Names {
					if n.Name != "msgTypes" || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, el := range lit.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok && consts[id.Name] != nil {
								entries[id.Name] = true
								continue
							}
						}
						pass.Reportf(el.Pos(), "msgTypes entry is not keyed by a MsgType constant; name its code with one")
					}
				}
			}
		}
	}

	for name, c := range consts {
		pos := c.Pos()
		if !entries[name] {
			pass.Reportf(pos, "message type %s has no entry in msgTypes; it neither decodes nor stringifies (it would log as MsgType(%s))", name, c.Val().String())
		}
		if _, ok := wireprotoHandlers[name]; !ok {
			pass.Reportf(pos, "message type %s not assigned to an apply switch in lazyvet's handler table (internal/analysis/wireproto.go); decide who receives it — edge, controller, or both", name)
		}
	}
	for name := range wireprotoHandlers {
		if _, ok := consts[name]; !ok {
			// Anchor at the MsgType declaration: the stale table entry
			// lives in lazyvet itself, but the codec is where the
			// reader looks.
			pass.Reportf(msgType.Pos(), "lazyvet handler table names %s but the codec declares no such MsgType constant; remove the stale entry from internal/analysis/wireproto.go", name)
		}
	}
}

// --- apply-switch and admission coverage ---

// typeSwitchCases collects the codec types named by the cases of the
// type switches in the package's functions called name, with the
// first such function and the position of its first type switch.
func typeSwitchCases(pass *Pass, name string) (fn *ast.FuncDecl, switchPos token.Pos, cases map[string]bool) {
	cases = make(map[string]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Body == nil {
				continue
			}
			if fn == nil {
				fn = fd
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSwitchStmt)
				if !ok {
					return true
				}
				if switchPos == token.NoPos {
					switchPos = ts.Pos()
				}
				for _, stmt := range ts.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if name, ok := codecCaseType(pass, e); ok {
							cases[name] = true
						}
					}
				}
				return true
			})
		}
	}
	return fn, switchPos, cases
}

// checkApplySwitch verifies the package's HandleMessage: its first
// statement is the admission guard, and both its type switch and the
// admit type switch behind the guard cover every message type the
// handler table assigns to this side.
func checkApplySwitch(pass *Pass, side int) {
	handle, handlePos, handled := typeSwitchCases(pass, "HandleMessage")
	if handlePos == token.NoPos {
		// No HandleMessage in this package (e.g. a fixture slice or a
		// refactor in flight elsewhere): nothing to check.
		return
	}
	if !isAdmitGuard(handle) {
		pass.Reportf(handle.Name.Pos(),
			"HandleMessage's first statement is not the admission guard `if !%s.admit(%s) { return }`; a handler reached before admission acts on messages whose sender had no standing to send them",
			recvName(handle), strings.Join(paramNames(handle), ", "))
	}
	_, admitPos, rows := typeSwitchCases(pass, "admit")
	if admitPos == token.NoPos {
		pass.Reportf(handle.Name.Pos(), "package has no admit type switch; every message type this side receives needs an admission row")
	}
	for constName, mask := range wireprotoHandlers {
		if mask&side == 0 {
			continue
		}
		typeName := strings.TrimPrefix(constName, "Type")
		if !handled[typeName] {
			pass.Reportf(handlePos,
				"HandleMessage type switch has no case for *openflow.%s, which lazyvet's handler table assigns to this side; the message would be silently dropped (the edge's Batch apply recurses through its switch)",
				typeName)
		}
		if admitPos != token.NoPos && !rows[typeName] {
			pass.Reportf(admitPos,
				"admit type switch has no row for *openflow.%s, which lazyvet's handler table assigns to this side; say who may send it and which identity fields must name the sender",
				typeName)
		}
	}
}

// isAdmitGuard reports whether fd's first statement is
// `if !recv.admit(params...) { return }` over fd's own receiver and
// parameters, in order.
func isAdmitGuard(fd *ast.FuncDecl) bool {
	if len(fd.Body.List) == 0 {
		return false
	}
	is, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || is.Init != nil || is.Else != nil || len(is.Body.List) != 1 {
		return false
	}
	if ret, ok := is.Body.List[0].(*ast.ReturnStmt); !ok || len(ret.Results) != 0 {
		return false
	}
	not, ok := is.Cond.(*ast.UnaryExpr)
	if !ok || not.Op != token.NOT {
		return false
	}
	call, ok := not.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "admit" {
		return false
	}
	if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != recvName(fd) {
		return false
	}
	params := paramNames(fd)
	if len(call.Args) != len(params) {
		return false
	}
	for i, a := range call.Args {
		if id, ok := a.(*ast.Ident); !ok || id.Name != params[i] {
			return false
		}
	}
	return true
}

// recvName is fd's receiver name ("" for a function).
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// paramNames lists fd's parameter names in order.
func paramNames(fd *ast.FuncDecl) []string {
	var out []string
	for _, f := range fd.Type.Params.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// codecCaseType extracts the codec type name from a case expression
// like *openflow.GFIBDelta, when the named type lives in a codec-scope
// package.
func codecCaseType(pass *Pass, e ast.Expr) (string, bool) {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return "", false
	}
	named, ok := derefType(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	if !pathInScope(named.Obj().Pkg().Path(), wireprotoCodecScopes) {
		return "", false
	}
	return named.Obj().Name(), true
}

// --- decoded-count bounds checks ---

// countPrimitives are the codec primitives that yield attacker-
// controlled counts, as a result or through a pointer argument.
var countPrimitives = map[string]bool{
	"uvarint": true,
	"u16":     true,
	"u32":     true,
	"u64":     true,
	"count":   true,
}

// countPrimitiveCall reports whether call invokes a count primitive,
// as a function (u32(w, &n), u32[int](w, &n)) or a method (r.u32()).
func countPrimitiveCall(call *ast.CallExpr) bool {
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return countPrimitives[f.Name]
	case *ast.SelectorExpr:
		return countPrimitives[f.Sel.Name]
	}
	return false
}

// checkDecodeBounds flags make() calls sized by a decoded count with
// no intervening upper-bound guard mentioning the count.
func checkDecodeBounds(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDecodeBoundsFunc(pass, fd)
		}
	}
}

func checkDecodeBoundsFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	// counts maps variables holding a decoded count to whether an
	// upper-bound guard has been seen since the assignment.
	counts := make(map[types.Object]bool)

	isCountResult := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			// A primitive that fills a pointer argument yields that
			// argument, not its result.
			if call, ok := n.(*ast.CallExpr); ok && countPrimitiveCall(call) && len(addrArgs(call)) == 0 {
				found = true
			}
			return !found
		})
		return found
	}

	usesCount := func(e ast.Expr) (types.Object, bool) {
		var obj types.Object
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := info.Uses[id]; o != nil {
					if _, tracked := counts[o]; tracked {
						obj = o
					}
				}
			}
			return obj == nil
		})
		return obj, obj != nil
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, l := range s.Lhs {
				if i >= len(s.Rhs) {
					break
				}
				id, ok := l.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if isCountResult(s.Rhs[i]) {
					if obj := info.Defs[id]; obj != nil {
						counts[obj] = false
					} else if obj := info.Uses[id]; obj != nil {
						counts[obj] = false
					}
				}
			}
		case *ast.IfStmt:
			// An upper-bound guard: somewhere in the condition the
			// count (possibly inside an arithmetic expression) is
			// compared >, >=, <, or <= against something other than
			// the literal 0. `if n > 0` alone is not a bound.
			markGuards(info, counts, s.Cond)
		case *ast.CallExpr:
			if countPrimitiveCall(s) {
				for _, id := range addrArgs(s) {
					if obj := info.Uses[id]; obj != nil {
						counts[obj] = false
					}
				}
			}
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "make" {
				for _, arg := range s.Args[1:] {
					if obj, ok := usesCount(arg); ok && !counts[obj] {
						pass.Reportf(s.Pos(),
							"make() sized by decoded count %q with no prior bounds check against the remaining payload; a crafted count reaches the allocator (guard like: if n > len(w.buf)/elemSize { fail })",
							obj.Name())
					}
				}
			}
		}
		return true
	})
}

// addrArgs lists the variables whose address call takes as an
// argument (&n).
func addrArgs(call *ast.CallExpr) []*ast.Ident {
	var ids []*ast.Ident
	for _, arg := range call.Args {
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if id, ok := u.X.(*ast.Ident); ok {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// markGuards walks an if condition and marks tracked counts that
// appear inside a real upper-bound comparison.
func markGuards(info *types.Info, counts map[types.Object]bool, cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		var boundedSide ast.Expr
		switch be.Op {
		case token.GTR, token.GEQ:
			// n > bound, n*size > remain, ...
			if !isZeroLiteral(be.Y) {
				boundedSide = be.X
			}
		case token.LSS, token.LEQ:
			// bound < n — the count on the right.
			if !isZeroLiteral(be.X) {
				boundedSide = be.Y
			}
		default:
			return true
		}
		if boundedSide == nil {
			return true
		}
		ast.Inspect(boundedSide, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if o := info.Uses[id]; o != nil {
					if _, tracked := counts[o]; tracked {
						counts[o] = true
					}
				}
			}
			return true
		})
		return true
	})
}

func isZeroLiteral(e ast.Expr) bool {
	bl, ok := e.(*ast.BasicLit)
	return ok && bl.Value == "0"
}
