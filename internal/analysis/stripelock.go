package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// StripeLock enforces the lock-striping discipline of the controller's
// sharded per-MAC state (stateShards): single-entry operations take
// exactly one stripe lock, and the only sanctioned multi-stripe shape
// is sequential ascending-index iteration. Concretely:
//
//  1. acquiring a stripe mutex while another stripe of the same table
//     is held is an error unless BOTH indices are compile-time
//     constants in strictly ascending order (the one shape that cannot
//     deadlock against itself);
//  2. calling a re-entrant entry point (a function that takes stripe
//     locks itself: Controller.ProcessBurst and the stateShards
//     methods) while holding a stripe lock is an error — on a
//     1-stripe table (StateShards=1 is a valid config) re-entry is an
//     instant self-deadlock, and on larger tables it is a lock-order
//     roulette.
//
// Stripe types and re-entrant entry points are named in tables below;
// tests extend them with fixture paths.
var StripeLock = &Analyzer{
	Name: "stripelock",
	Doc: "stripe mutexes must not be held concurrently (except constant ascending " +
		"order) and stripe-locking entry points must not be re-entered under a stripe lock",
	Run: runStripeLock,
}

// stripeTypes names the lock-stripe struct types: values of these
// types carry a mutex field (mu) that the discipline governs. Keyed by
// "<pkg-suffix>.<Type>".
var stripeTypes = map[string]bool{
	"internal/controller.stateShard": true,
}

// stripeReentrant names functions that acquire stripe locks
// internally and therefore must never be called while one is held.
// Keyed by "<pkg-suffix>.<Type>.<method>".
var stripeReentrant = map[string]bool{
	"internal/controller.Controller.ProcessBurst":   true,
	"internal/controller.stateShards.learn":         true,
	"internal/controller.stateShards.locate":        true,
	"internal/controller.stateShards.appendPending": true,
	"internal/controller.stateShards.takePending":   true,
}

// heldStripe is one currently-held stripe lock.
type heldStripe struct {
	obj      types.Object // the stripe variable, when locked through one
	typ      string       // stripe type key
	indexVal constant.Value
	hasIndex bool
	pos      token.Pos
}

func runStripeLock(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			v := &stripeVisitor{pass: pass, stripeOf: make(map[types.Object]*heldStripe)}
			v.walk(fd.Body)
		}
	}
	return nil
}

type stripeVisitor struct {
	pass *Pass
	// stripeOf maps local variables to the stripe they reference
	// (s := t.shardFor(mac), s := &t.shards[i]).
	stripeOf map[types.Object]*heldStripe
	held     []*heldStripe
}

func (v *stripeVisitor) walk(n ast.Node) {
	switch s := n.(type) {
	case nil:
		return
	case *ast.AssignStmt:
		v.trackAliases(s)
	case *ast.RangeStmt:
		// Loop bodies iterate: locks taken and released per iteration
		// are sequential, not nested. Walk children; the held set
		// naturally stays empty across iterations because Unlock in
		// the same body releases it. (A Lock without a matching
		// Unlock in the body would be flagged on a real second
		// iteration; source-order analysis sees only one pass, which
		// is the accepted precision for this checker.)
	case *ast.DeferStmt:
		// defer s.mu.Unlock() releases at function end: for the
		// source-order walk the lock stays held for the remainder of
		// the function, which is exactly the conservative reading we
		// want. Do not process the call as an immediate unlock.
		if v.isStripeUnlock(s.Call) != nil {
			return
		}
	case *ast.CallExpr:
		if h := v.isStripeLock(s); h != nil {
			v.acquire(h)
			return
		}
		if h := v.isStripeUnlock(s); h != nil {
			v.release(h)
			return
		}
		v.checkReentry(s)
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		v.walk(c)
		return false
	})
}

// trackAliases records stripe-typed variable bindings:
// s := t.shardFor(mac) or s := &t.shards[i].
func (v *stripeVisitor) trackAliases(s *ast.AssignStmt) {
	for i, l := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := v.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = v.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		typ := stripeTypeKey(obj.Type())
		if typ == "" {
			continue
		}
		h := &heldStripe{obj: obj, typ: typ}
		// Extract a constant index from &arr[i] when available.
		rhs := s.Rhs[i]
		if ue, ok := rhs.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if ie, ok := ue.X.(*ast.IndexExpr); ok {
				if tv, ok := v.pass.TypesInfo.Types[ie.Index]; ok && tv.Value != nil {
					h.indexVal = tv.Value
					h.hasIndex = true
				}
			}
		}
		v.stripeOf[obj] = h
	}
}

// stripeSelector matches a call of the form <stripe>.mu.<method> and
// returns the stripe description, or nil.
func (v *stripeVisitor) stripeSelector(call *ast.CallExpr, methods map[string]bool) *heldStripe {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !methods[sel.Sel.Name] {
		return nil
	}
	muSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok || muSel.Sel.Name != "mu" {
		return nil
	}
	recv := muSel.X
	typ := stripeTypeKey(v.pass.TypesInfo.TypeOf(recv))
	if typ == "" {
		return nil
	}
	// Locked through a tracked alias?
	if id, ok := recv.(*ast.Ident); ok {
		if obj := v.pass.TypesInfo.Uses[id]; obj != nil {
			if h, ok := v.stripeOf[obj]; ok {
				return &heldStripe{obj: obj, typ: h.typ, indexVal: h.indexVal, hasIndex: h.hasIndex, pos: call.Pos()}
			}
			return &heldStripe{obj: obj, typ: typ, pos: call.Pos()}
		}
	}
	// Locked directly: t.shards[i].mu.Lock().
	h := &heldStripe{typ: typ, pos: call.Pos()}
	if ie, ok := recv.(*ast.IndexExpr); ok {
		if tv, ok := v.pass.TypesInfo.Types[ie.Index]; ok && tv.Value != nil {
			h.indexVal = tv.Value
			h.hasIndex = true
		}
	}
	return h
}

var stripeLockMethods = map[string]bool{"Lock": true, "RLock": true}
var stripeUnlockMethods = map[string]bool{"Unlock": true, "RUnlock": true}

func (v *stripeVisitor) isStripeLock(call *ast.CallExpr) *heldStripe {
	return v.stripeSelector(call, stripeLockMethods)
}

func (v *stripeVisitor) isStripeUnlock(call *ast.CallExpr) *heldStripe {
	return v.stripeSelector(call, stripeUnlockMethods)
}

// acquire checks the new lock against every stripe already held.
func (v *stripeVisitor) acquire(h *heldStripe) {
	for _, prev := range v.held {
		if prev.typ != h.typ {
			continue
		}
		if prev.obj != nil && prev.obj == h.obj {
			// Same stripe relocked: sync.Mutex self-deadlock, but
			// that is the race detector's territory; skip.
			continue
		}
		if prev.hasIndex && h.hasIndex {
			if constant.Compare(prev.indexVal, token.LSS, h.indexVal) {
				continue // provably ascending: the sanctioned shape
			}
			v.pass.Reportf(h.pos,
				"stripe %s locked at constant index %s while index %s is already held: stripe locks must be acquired in ascending index order",
				h.typ, h.indexVal.String(), prev.indexVal.String())
			continue
		}
		v.pass.Reportf(h.pos,
			"second %s stripe lock acquired while one is already held (locked at %s) without provably ascending constant indices; single-entry operations take exactly one stripe — restructure to release the first stripe, or hash both keys and lock in index order",
			h.typ, v.pass.Fset.Position(prev.pos))
	}
	v.held = append(v.held, h)
}

func (v *stripeVisitor) release(h *heldStripe) {
	for i := len(v.held) - 1; i >= 0; i-- {
		prev := v.held[i]
		if prev.typ != h.typ {
			continue
		}
		if (prev.obj != nil && prev.obj == h.obj) || (prev.obj == nil && h.obj == nil) || h.obj == nil || prev.obj == nil {
			v.held = append(v.held[:i], v.held[i+1:]...)
			return
		}
	}
	// Unlock of a stripe we never saw locked: ignore (conditional
	// paths).
}

// checkReentry flags calls into stripe-locking entry points while any
// stripe lock is held.
func (v *stripeVisitor) checkReentry(call *ast.CallExpr) {
	if len(v.held) == 0 {
		return
	}
	fn := calleeFunc(v.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	var key string
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := derefType(sig.Recv().Type()).(*types.Named); ok {
			key = fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if key == "" {
		key = fn.Pkg().Path() + "." + fn.Name()
	}
	if !reentrantMatch(key) {
		return
	}
	v.pass.Reportf(call.Pos(),
		"call to stripe-locking entry point %s while a stripe lock is held (acquired at %s): re-entry deadlocks on 1-stripe configs and inverts lock order on larger ones",
		fn.Name(), v.pass.Fset.Position(v.held[len(v.held)-1].pos))
}

func reentrantMatch(full string) bool {
	for key := range stripeReentrant {
		if full == key || strings.HasSuffix(full, "/"+key) {
			return true
		}
	}
	return false
}

// stripeTypeKey resolves a type to its stripe-table key, or "".
func stripeTypeKey(t types.Type) string {
	if t == nil {
		return ""
	}
	named, ok := derefType(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	for key := range stripeTypes {
		if full == key || strings.HasSuffix(full, "/"+key) {
			return key
		}
	}
	return ""
}
