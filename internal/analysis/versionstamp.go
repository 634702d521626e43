package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// VersionStamp enforces the repo's version-stamping ownership rule:
// state-version fields are written only inside approved snapshot/owner
// functions. The rule exists because version equality is load-bearing
// across the whole dissemination path — a G-FIB filter at version v
// must be byte-identical to every other filter at version v, and the
// C-LIB's recorded per-switch version must imply the complete entry
// set at that version. A write from anywhere else (most dangerously:
// stamping an incremental update's version as if it were a snapshot)
// silently poisons every receiver that trusts version equality.
// "Increments must never stamp versions."
//
// Two rule tables drive the analyzer:
//
//   - versionStampFields: protected struct fields and the functions
//     allowed to assign them (including map stores, delete(), ++/--,
//     and composite-literal keys). An entry may demand a guard: the
//     write must sit under an if whose condition mentions the guard
//     field (CLIB.ApplyLFIB may stamp swVersions only under u.Full).
//   - versionStampSetters: exported setter methods (bloom's
//     Filter.SetVersion) and their approved callers — the G-FIB install
//     paths and the senders' filter builder, which own version
//     assignment.
var VersionStamp = &Analyzer{
	Name: "versionstamp",
	Doc: "version fields are written only by approved snapshot/owner functions; " +
		"increments must never stamp versions",
	Run: runVersionStamp,
}

// stampWriter names one approved writing function, as
// "<pkg-suffix>:<Recv.Method>" or "<pkg-suffix>:<Func>". Writes inside
// function literals are attributed to the enclosing declared function.
// A non-empty guard requires the write to be dominated by an if whose
// condition selects that field name.
type stampWriter struct {
	fn    string
	guard string
}

// versionStampFields maps "<type-pkg-suffix>.<Type>.<field>" to its
// approved writers. GFIB.version is deliberately absent: it is the
// G-FIB's own structural change counter, not an owner-assigned state
// version, and any GFIB method may bump it.
var versionStampFields = map[string][]stampWriter{
	"internal/bloom.Filter.version": {
		{fn: "internal/bloom:Filter.SetVersion"},
		{fn: "internal/bloom:Filter.Clone"},
	},
	"internal/fib.LFIB.version": {
		{fn: "internal/fib:LFIB.Learn"},
		{fn: "internal/fib:LFIB.Remove"},
		{fn: "internal/fib:LFIB.Expire"},
		{fn: "internal/fib:LFIB.Restart"},
	},
	"internal/fib.LFIB.epoch": {
		{fn: "internal/fib:LFIB.Restart"},
	},
	"internal/fib.CLIB.swVersions": {
		{fn: "internal/fib:NewCLIB"},
		{fn: "internal/fib:CLIB.ApplyLFIB", guard: "Full"},
		{fn: "internal/fib:CLIB.RemoveSwitch"},
	},
	// Cluster generation IDs are owner-only: a replica's generation
	// moves only at construction, on takeover (becomeMaster), or when
	// adopting proof of a higher generation (step-down); an edge's
	// highest-seen generation moves only through adoptGeneration and
	// the reboot reset.
	"internal/controller.Controller.generation": {
		{fn: "internal/controller:New"},
		{fn: "internal/controller:Controller.becomeMaster"},
		{fn: "internal/controller:Controller.adoptGeneration"},
	},
	"internal/edge.Switch.ctrlGen": {
		{fn: "internal/edge:Switch.adoptGeneration"},
		{fn: "internal/edge:Switch.Reboot"},
	},
}

// versionStampSetters maps "<type-pkg-suffix>.<Type>.<method>" setter
// methods to their approved callers: the G-FIB's two install paths and
// PeerFilter.Rebuild, the one builder both G-FIB senders use.
var versionStampSetters = map[string][]stampWriter{
	"internal/bloom.Filter.SetVersion": {
		{fn: "internal/fib:GFIB.SetFilterBytes"},
		{fn: "internal/fib:GFIB.ApplyDelta"},
		{fn: "internal/fib:PeerFilter.Rebuild"},
	},
}

func runVersionStamp(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			v := &stampVisitor{
				pass:    pass,
				funcKey: pass.Pkg.Path() + ":" + funcDeclName(fd),
			}
			v.walk(fd.Body)
		}
	}
	return nil
}

// funcDeclName renders a declaration as "Recv.Method" or "Func".
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip type parameters on generic receivers.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// writerMatches reports whether the current function (pkgPath:Name)
// is the writer named by w.fn ("pkg-suffix:Name").
func writerMatches(funcKey, writerFn string) bool {
	i := strings.LastIndex(funcKey, ":")
	j := strings.LastIndex(writerFn, ":")
	if i < 0 || j < 0 {
		return false
	}
	if funcKey[i+1:] != writerFn[j+1:] {
		return false
	}
	pkg, want := funcKey[:i], writerFn[:j]
	return pkg == want || strings.HasSuffix(pkg, "/"+want)
}

type stampVisitor struct {
	pass    *Pass
	funcKey string
	// ifConds is the stack of enclosing then-branch conditions, for
	// guard-domination checks.
	ifConds []ast.Expr
}

func (v *stampVisitor) walk(n ast.Node) {
	switch s := n.(type) {
	case nil:
		return
	case *ast.IfStmt:
		if s.Init != nil {
			v.walk(s.Init)
		}
		v.walk(s.Cond)
		v.ifConds = append(v.ifConds, s.Cond)
		v.walk(s.Body)
		v.ifConds = v.ifConds[:len(v.ifConds)-1]
		if s.Else != nil {
			// The else branch is NOT dominated by the condition.
			v.walk(s.Else)
		}
		return
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			v.checkFieldWrite(l, l.Pos())
		}
	case *ast.IncDecStmt:
		v.checkFieldWrite(s.X, s.Pos())
	case *ast.CallExpr:
		v.checkCall(s)
	case *ast.CompositeLit:
		v.checkCompositeLit(s)
	}
	// Generic recursion into children.
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		v.walk(c)
		return false
	})
}

// checkFieldWrite flags an assignment target that resolves (possibly
// through a map index) to a protected field.
func (v *stampVisitor) checkFieldWrite(lhs ast.Expr, pos token.Pos) {
	e := lhs
	// c.swVersions[sw] = v writes the swVersions field.
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = idx.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	key, writers := v.fieldRule(sel)
	if writers == nil {
		return
	}
	v.enforce(pos, key, writers, "write to")
}

// checkCall handles delete(protected-map, k) and calls to protected
// setter methods.
func (v *stampVisitor) checkCall(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 {
		if sel, ok := call.Args[0].(*ast.SelectorExpr); ok {
			if key, writers := v.fieldRule(sel); writers != nil {
				v.enforce(call.Pos(), key, writers, "delete from")
			}
		}
		return
	}
	fn := calleeFunc(v.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	named, ok := derefType(sig.Recv().Type()).(*types.Named)
	if !ok {
		return
	}
	key := named.Obj().Name() + "." + fn.Name()
	for ruleKey, writers := range versionStampSetters {
		i := strings.LastIndex(ruleKey, ".")
		j := strings.LastIndex(ruleKey[:i], ".")
		if ruleKey[j+1:] != key {
			continue
		}
		pkgSuf := ruleKey[:j]
		p := fn.Pkg().Path()
		if p == pkgSuf || strings.HasSuffix(p, "/"+pkgSuf) {
			v.enforce(call.Pos(), ruleKey, writers, "call to")
			return
		}
	}
}

// checkCompositeLit flags protected fields stamped via keyed struct
// literals: &Filter{version: x}.
func (v *stampVisitor) checkCompositeLit(lit *ast.CompositeLit) {
	t := v.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := derefType(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	base := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "."
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		id, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if key, writers := lookupStampRule(base + id.Name); writers != nil {
			v.enforce(kv.Pos(), key, writers, "composite-literal stamp of")
		}
	}
}

// fieldRule resolves a selector to a protected-field rule, or nil.
func (v *stampVisitor) fieldRule(sel *ast.SelectorExpr) (string, []stampWriter) {
	s, ok := v.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", nil
	}
	field := s.Obj()
	named, ok := derefType(s.Recv()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", nil
	}
	return lookupStampRule(named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Name())
}

// lookupStampRule matches "<full-pkg-path>.<Type>.<field>" against the
// suffix-keyed rule table.
func lookupStampRule(full string) (string, []stampWriter) {
	for key, writers := range versionStampFields {
		if full == key || strings.HasSuffix(full, "/"+key) {
			return key, writers
		}
	}
	return "", nil
}

// enforce reports unless the current function is an approved writer
// whose guard (if any) dominates the write.
func (v *stampVisitor) enforce(pos token.Pos, key string, writers []stampWriter, verb string) {
	for _, w := range writers {
		if !writerMatches(v.funcKey, w.fn) {
			continue
		}
		if w.guard == "" || v.guardedBy(w.guard) {
			return
		}
		v.pass.Reportf(pos,
			"%s %s in %s must be dominated by a .%s check: increments must never stamp versions (wrap the write in `if %s { ... }`)",
			verb, key, w.fn, w.guard, "u."+w.guard)
		return
	}
	var names []string
	for _, w := range writers {
		names = append(names, w.fn)
	}
	v.pass.Reportf(pos,
		"%s version state %s outside its approved owner functions (%s); version stamps are owner-assigned — route the change through the snapshot path",
		verb, key, strings.Join(names, ", "))
}

// guardedBy reports whether any enclosing then-branch condition
// selects the named field (e.g. `if u.Full { ... }`).
func (v *stampVisitor) guardedBy(field string) bool {
	for _, cond := range v.ifConds {
		found := false
		ast.Inspect(cond, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == field {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
