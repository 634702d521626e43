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
//     coverage);
//  3. count fields decoded from the wire (uvarint/u16/u32) are
//     bounds-checked against the remaining payload before they size an
//     allocation — a crafted count must not reach make().
//
// Adding a wire message therefore fails the build until the codec
// table, the handler table, and the apply switch of the receiving side
// all agree — the cross-package drift this catches used to surface
// only as a silently dropped message in a chaos run.
var WireProto = &Analyzer{
	Name: "wireproto",
	Doc: "cross-check codec registration (msgTypes), apply-switch " +
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

// --- apply-switch coverage ---

// checkApplySwitch verifies the package's HandleMessage type switches
// cover every message type the handler table assigns to this side.
func checkApplySwitch(pass *Pass, side int) {
	handled := make(map[string]bool)
	var switchPos token.Pos
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "HandleMessage" || fd.Body == nil {
				continue
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
							handled[name] = true
						}
					}
				}
				return true
			})
		}
	}
	if switchPos == token.NoPos {
		// No HandleMessage in this package (e.g. a fixture slice or a
		// refactor in flight elsewhere): nothing to check.
		return
	}
	for constName, mask := range wireprotoHandlers {
		if mask&side == 0 {
			continue
		}
		typeName := strings.TrimPrefix(constName, "Type")
		if !handled[typeName] {
			pass.Reportf(switchPos,
				"HandleMessage type switch has no case for *openflow.%s, which lazyvet's handler table assigns to this side; the message would be silently dropped (the edge's Batch apply recurses through its switch)",
				typeName)
		}
	}
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

// readerCountMethods are the reader primitives that yield attacker-
// controlled counts.
var readerCountMethods = map[string]bool{
	"uvarint": true,
	"u16":     true,
	"u32":     true,
	"u64":     true,
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

	isReaderCount := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if readerCountMethods[sel.Sel.Name] {
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
				if isReaderCount(s.Rhs[i]) {
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
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "make" {
				for _, arg := range s.Args[1:] {
					if obj, ok := usesCount(arg); ok && !counts[obj] {
						pass.Reportf(s.Pos(),
							"make() sized by decoded count %q with no prior bounds check against the remaining payload; a crafted count reaches the allocator (guard like: if n > r.remain()/elemSize { fail })",
							obj.Name())
					}
				}
			}
		}
		return true
	})
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
