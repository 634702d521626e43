package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"lazyctrl/internal/analysis"
	"lazyctrl/internal/analysis/load"
)

// deadStateExempt lists what TestNoDeadState lets stand, one reason
// each. A key is a function's types.Func.FullName (kept reachable, and
// everything it calls with it) or a struct's package-qualified name
// (all its fields count as read). An entry that matches no finding is
// itself a failure, so the table only shrinks.
var deadStateExempt = map[string]string{
	// Another package's tests need these.
	"lazyctrl/internal/analysis/load.Fixture":     "the analyzer fixture tests load testdata packages through it",
	"lazyctrl/internal/chaos.Randomized":          "the eval chaos soaks draw their fault plans from it",
	"lazyctrl/internal/chaos.ControllerOutage":    "the eval degraded-mode test schedules it",
	"(*lazyctrl/internal/chaos.Plan).Describe":    "the eval chaos soaks print the failing plan with it",
	"(*lazyctrl/internal/sim.Simulator).Pending":  "controller and failover tests check that no event is left queued",
	"(*lazyctrl/internal/netsim.Deferred[T]).Cap": "the edge's slow-path test bounds the queue's storage by the peak in flight",
	"(lazyctrl/internal/chaos.Func).Apply":        "the eval and root chaos tests script bespoke steps with it",
	"(lazyctrl/internal/chaos.Func).String":       "the eval and root chaos tests script bespoke steps with it",
	// A ROADMAP item owns the decision.
	"(*lazyctrl/internal/fib.GFIB).QueryIP":  "item 13: model §III-D3 level-ii ARP, or stop keying filters by IP",
	"lazyctrl/internal/eval.EmulationResult": "item 16: the golden pre-image hashes Mode and Dynamic",
}

// TestNoDeadState keeps code that nothing ships from piling up. It
// type-checks the root and benchmark/ modules (non-test files only) and
// fails on every function under internal/ that no shipped entry point
// reaches, and on every struct field under internal/ that reached code
// never reads. docs/analysis.md states the roots, what counts as a read
// and the exemption policy.
func TestNoDeadState(t *testing.T) {
	var pkgs []*analysis.Package
	for _, dir := range []string{"../..", "../../benchmark"} {
		loaded, err := load.Patterns(dir, []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
	}
	shipped := func(path string) bool { return !strings.HasPrefix(path, "lazyctrl/internal/") }
	findings, stale := deadState(pkgs, shipped, deadStateExempt)
	if len(findings) > 0 {
		t.Errorf("%d functions or fields only tests reach or read (delete them, move them into _test.go files, or exempt them with a reason):\n  %s",
			len(findings), strings.Join(findings, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("%d exemptions match no finding (delete them):\n  %s", len(stale), strings.Join(stale, "\n  "))
	}
}

// TestDeadStateFixture pins the gate's rules on deadfix, a shipped
// package over deadfix/internal/lib. The two are type-checked
// separately, as the two modules are, so the findings also show that
// references cross type-checker universes by name.
func TestDeadStateFixture(t *testing.T) {
	var pkgs []*analysis.Package
	for _, p := range []string{"deadfix", "deadfix/internal/lib"} {
		pkg, err := load.Fixture("../..", "testdata", p)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	shipped := func(path string) bool { return !strings.Contains(path, "/internal/") }
	exempt := map[string]string{
		"deadfix/internal/lib.Exempt":    "exempt on purpose",
		"deadfix/internal/lib.Formatted": "stale on purpose: shipped code formats it",
	}
	findings, stale := deadState(pkgs, shipped, exempt)
	want := []string{
		"(*deadfix/internal/lib.Counter).Reset",
		"(deadfix/internal/lib.Gadget).Name",
		"deadfix/internal/lib.Counter.writes",
		"deadfix/internal/lib.TestOnly",
		"deadfix/internal/lib.helper",
	}
	if strings.Join(findings, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(findings, "\n  "), strings.Join(want, "\n  "))
	}
	if len(stale) != 1 || stale[0] != "deadfix/internal/lib.Formatted" {
		t.Errorf("stale exemptions = %v, want [deadfix/internal/lib.Formatted]", stale)
	}
}

// deadState returns, in sorted order, the functions declared outside
// the shipped packages that no root reaches, and the fields of
// package-level structs declared outside them that reached code never
// reads; then the exemptions that matched neither. Objects are keyed
// by name (types.Func.FullName, pkgpath.Type.field), never by pointer
// or position: each package is type-checked from source against its
// imports' export data, so one function has a different types.Func in
// its own package than in each of its callers.
//
// The roots are every function of a shipped package, every init and
// package-level initializer, every exempt function, and every method
// that satisfies an interface declared in pkgs or one of stdInterfaces
// once reached code holds a value of its type: any expression of the
// type or a pointer to it, or a value formatted, compared or used as a
// map key whose type contains it.
// A function reaches every function its body names: calls, method
// values and method expressions, generic instances by their origin.
//
// A field is read by a selector that is not the target of an
// assignment or ++/--, by each embedded hop of a promoted selection,
// and wholesale when its struct is a map key or an == operand, or is
// handed to fmt, log or encoding/json.
func deadState(pkgs []*analysis.Package, shipped func(pkgPath string) bool, exempt map[string]string) (findings, stale []string) {
	type body struct {
		node ast.Node
		info *types.Info
	}
	decls := map[string]body{}        // function key → declaration, outside shipped packages
	var roots []body                  // bodies reached unconditionally
	fieldsOf := map[string][]string{} // struct key → its field keys, outside shipped packages
	ifaces := importedInterfaces(pkgs)
	var named []*types.Named
	for _, p := range pkgs {
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			if it, ok := n.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
				continue
			}
			named = append(named, n)
			if st, ok := n.Underlying().(*types.Struct); ok && !shipped(p.Pkg.Path()) {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Name() != "_" {
						fieldsOf[typeKey(tn)] = append(fieldsOf[typeKey(tn)], typeKey(tn)+"."+f.Name())
					}
				}
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					if shipped(p.Pkg.Path()) || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "_") {
						roots = append(roots, body{d.Body, p.Info})
					} else {
						decls[p.Info.Defs[d.Name].(*types.Func).FullName()] = body{d.Body, p.Info}
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, body{d, p.Info})
					}
				}
			}
		}
	}

	// Methods that satisfy an interface are called through it, once
	// reached code constructs a value of the type that has them.
	viaIface := map[string][]string{} // type key → its interface-satisfying methods
	for _, n := range named {
		ms := types.NewMethodSet(types.NewPointer(n))
		have := map[string]*types.Func{}
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj().(*types.Func)
			have[fn.Name()+sigKey(fn.Type().(*types.Signature))] = fn
		}
	next:
		for _, it := range ifaces {
			if it.NumMethods() == 0 {
				continue
			}
			var impl []*types.Func
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				fn := have[m.Name()+sigKey(m.Type().(*types.Signature))]
				if fn == nil {
					continue next
				}
				impl = append(impl, fn)
			}
			for _, fn := range impl {
				viaIface[typeKey(n.Obj())] = append(viaIface[typeKey(n.Obj())], fn.Origin().FullName())
			}
		}
	}

	reached := map[string]bool{}
	read := map[string]bool{}
	wholesale := map[string]bool{} // struct keys whose every field is read
	var queue []string
	reach := func(key string) {
		if !reached[key] {
			reached[key] = true
			queue = append(queue, key)
		}
	}
	// construct records that reached code holds a value of t (or a
	// pointer to one), which roots t's interface-satisfying methods.
	constructed := map[string]bool{}
	construct := func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			key := typeKey(n.Origin().Obj())
			if !constructed[key] {
				constructed[key] = true
				for _, fn := range viaIface[key] {
					reach(fn)
				}
			}
		}
	}
	// readAll marks t's struct types as read wholesale. Formatting
	// follows pointers and containers (deep); a comparison reads only
	// what the operands hold by value.
	seen := map[bool]map[types.Type]bool{false: {}, true: {}}
	var readAll func(t types.Type, deep bool)
	readAll = func(t types.Type, deep bool) {
		if t == nil || seen[deep][t] {
			return
		}
		seen[deep][t] = true
		switch u := types.Unalias(t).(type) {
		case *types.Named:
			wholesale[typeKey(u.Origin().Obj())] = true
			construct(u)
			readAll(u.Underlying(), deep)
		case *types.Array:
			readAll(u.Elem(), deep)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				readAll(u.Field(i).Type(), deep)
			}
		case *types.Pointer:
			if deep {
				readAll(u.Elem(), deep)
			}
		case *types.Slice:
			if deep {
				readAll(u.Elem(), deep)
			}
		case *types.Map:
			if deep {
				readAll(u.Key(), deep)
				readAll(u.Elem(), deep)
			}
		}
	}
	visit := func(b body) {
		writes := map[ast.Expr]bool{}
		ast.Inspect(b.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					writes[ast.Unparen(lhs)] = true
				}
			case *ast.IncDecStmt:
				writes[ast.Unparen(n.X)] = true
			case *ast.Ident:
				if fn, ok := b.info.Uses[n].(*types.Func); ok {
					reach(fn.Origin().FullName())
				}
			case *ast.SelectorExpr:
				sel := b.info.Selections[n]
				if sel == nil {
					break
				}
				t := sel.Recv()
				idx := sel.Index()
				for i, x := range idx {
					last := i == len(idx)-1
					if last && sel.Kind() != types.FieldVal {
						break
					}
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					f := st.Field(x)
					if nt, ok := types.Unalias(t).(*types.Named); ok && (!last || !writes[n]) {
						read[typeKey(nt.Origin().Obj())+"."+f.Name()] = true
					}
					t = f.Type()
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					readAll(b.info.TypeOf(n.X), false)
				}
			case *ast.CallExpr:
				if fn := callee(b.info, n); fn != nil && fn.Pkg() != nil && formats[fn.Pkg().Path()] {
					for _, arg := range n.Args {
						readAll(b.info.TypeOf(arg), true)
					}
				}
			}
			if e, ok := n.(ast.Expr); ok {
				if t := b.info.TypeOf(e); t != nil {
					construct(t)
					if m, ok := t.Underlying().(*types.Map); ok {
						readAll(m.Key(), false)
					}
				}
			}
			return true
		})
	}
	for _, r := range roots {
		visit(r)
	}
	drain := func() {
		for len(queue) > 0 {
			key := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if b, ok := decls[key]; ok {
				visit(b)
			}
		}
	}
	drain()
	live := map[string]bool{} // exemptions that hide a finding
	for key := range exempt {
		if _, ok := decls[key]; ok && !reached[key] {
			live[key] = true
		}
	}
	for key := range live {
		reach(key)
	}
	drain()

	for key := range decls {
		if !reached[key] {
			findings = append(findings, key)
		}
	}
	for owner, keys := range fieldsOf {
		if wholesale[owner] {
			continue
		}
		var dead []string
		for _, key := range keys {
			if !read[key] {
				dead = append(dead, key)
			}
		}
		if _, ok := exempt[owner]; ok {
			if len(dead) > 0 {
				live[owner] = true
			}
			continue
		}
		findings = append(findings, dead...)
	}
	for key := range exempt {
		if !live[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(findings)
	sort.Strings(stale)
	return findings, stale
}

// formats are the packages whose calls read every field of their
// arguments: fmt and log through %v, encoding/json by reflection.
var formats = map[string]bool{"fmt": true, "log": true, "encoding/json": true}

// callee is the function or method a call names statically, or nil.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// typeKey names a type declared at package level.
func typeKey(tn *types.TypeName) string {
	if tn.Pkg() == nil { // error, comparable
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

// sigKey renders a signature's parameter and result types without
// names or receiver, so one method matches an interface's across
// type-checker universes.
func sigKey(sig *types.Signature) string {
	tuple := func(t *types.Tuple) string {
		var s []string
		for i := 0; i < t.Len(); i++ {
			s = append(s, types.TypeString(t.At(i).Type(), nil))
		}
		return "(" + strings.Join(s, ",") + ")"
	}
	key := tuple(sig.Params()) + tuple(sig.Results())
	if sig.Variadic() {
		key += "..."
	}
	return key
}

// stdInterfaces are the standard-library interfaces through which the
// standard library calls the module's methods.
var stdInterfaces = []string{
	"fmt.Stringer",
	"encoding.BinaryMarshaler",
	"encoding.BinaryUnmarshaler",
	"sort.Interface",
	"container/heap.Interface",
	"go/types.Importer",
}

// importedInterfaces finds stdInterfaces among the packages pkgs import,
// directly or not, plus error.
func importedInterfaces(pkgs []*analysis.Package) []*types.Interface {
	byPath := map[string]*types.Package{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if byPath[p.Path()] == nil {
			byPath[p.Path()] = p
			for _, imp := range p.Imports() {
				walk(imp)
			}
		}
	}
	for _, p := range pkgs {
		walk(p.Pkg)
	}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range stdInterfaces {
		dot := strings.LastIndex(name, ".")
		if p := byPath[name[:dot]]; p != nil {
			if obj := p.Scope().Lookup(name[dot+1:]); obj != nil {
				out = append(out, obj.Type().Underlying().(*types.Interface))
			}
		}
	}
	return out
}
