package grouping

import (
	"sort"

	"lazyctrl/internal/model"
)

// intensityMatrix abstracts the matrix operations SGI consumes, so the
// differential tests can drive the exact same algorithm with the legacy
// map-based implementation and compare the resulting groupings against
// the indexed one.
type intensityMatrix interface {
	// Switches returns the registered switches in ascending ID order;
	// callers must not modify the returned slice.
	Switches() []model.SwitchID
	// ForEachPair visits every positive pair in deterministic
	// (A,B)-sorted order.
	ForEachPair(fn func(p model.SwitchPair, w float64))
	// ForEachNeighbor visits the positive-intensity neighbors of s in a
	// deterministic order.
	ForEachNeighbor(s model.SwitchID, fn func(t model.SwitchID, w float64))
	// Total is the sum of all pairwise intensities.
	Total() float64
	// MaxPair is the largest single pairwise intensity.
	MaxPair() float64
	// cloneMatrix returns an independent deep copy.
	cloneMatrix() intensityMatrix
}

func (m *Intensity) cloneMatrix() intensityMatrix { return m.Clone() }

// denseView is a matrix in a dense index space, the layout the hot loops
// walk as plain arrays: ids[i] is switch i, ix inverts ids, and adj[i]
// lists i's neighbors by index with each undirected pair stored in both
// endpoints' lists at the same weight.
type denseView struct {
	ids []model.SwitchID
	ix  map[model.SwitchID]int32
	adj [][]nbr
}

// isIndexPrefix reports whether prev's dense index space is a prefix of
// src's, i.e. every switch has the same index in both. True whenever
// prev is an earlier clone of src's lineage (indices are append-only).
func isIndexPrefix(prev, src *Intensity) bool {
	if len(prev.ids) > len(src.ids) {
		return false
	}
	for i, s := range prev.ids {
		if src.ids[i] != s {
			return false
		}
	}
	return true
}

// denseViews returns src, and prev's adjacency when prev is non-nil, in
// one shared index space. When both are indexed (*Intensity) and prev's
// index space is a prefix of src's, the views alias the matrices' own
// index and adjacency with zero copying, and prevAdj may be shorter than
// view.adj; otherwise (the legacy reference matrix in tests) they are
// copies. The matrices must not be mutated while a view is live.
func denseViews(src, prev intensityMatrix) (view denseView, prevAdj [][]nbr) {
	si, fast := src.(*Intensity)
	var pi *Intensity
	if fast && prev != nil {
		pi, fast = prev.(*Intensity)
		fast = fast && isIndexPrefix(pi, si)
	}
	if fast {
		view = denseView{ids: si.ids, ix: si.idx, adj: si.adj}
		if pi != nil {
			prevAdj = pi.adj
		}
		return view, prevAdj
	}

	srcIDs := src.Switches()
	view.ix = make(map[model.SwitchID]int32, len(srcIDs))
	reg := func(s model.SwitchID) {
		if _, ok := view.ix[s]; !ok {
			view.ix[s] = int32(len(view.ids))
			view.ids = append(view.ids, s)
		}
	}
	for _, s := range srcIDs {
		reg(s)
	}
	var prevIDs []model.SwitchID
	if prev != nil {
		prevIDs = prev.Switches()
		for _, s := range prevIDs {
			reg(s)
		}
	}
	copyAdj := func(m intensityMatrix, ids []model.SwitchID) [][]nbr {
		adj := make([][]nbr, len(view.ids))
		for _, s := range ids {
			ia := view.ix[s]
			m.ForEachNeighbor(s, func(b model.SwitchID, w float64) {
				adj[ia] = append(adj[ia], nbr{to: view.ix[b], w: w})
			})
		}
		return adj
	}
	view.adj = copyAdj(src, srcIDs)
	if prev != nil {
		prevAdj = copyAdj(prev, prevIDs)
	}
	return view, prevAdj
}

// cutEps is the cancellation floor of the tracker: a delta-maintained
// group-pair weight whose magnitude drops below it is treated as exactly
// zero, so floating-point residue left behind by moves that cancel a
// pair's entire traffic cannot keep a dead pair alive. It matches the
// matrix's Decay floor (1e-12 flows/s), below which a weight is
// physically meaningless.
const cutEps = decayFloor

// noSlot is the slot of a switch outside every group (model.NoGroup).
const noSlot = -1

// cutTracker maintains W_inter and the per-group-pair cut weights of a
// grouping incrementally (§III-C: IncUpdate must be ~100× cheaper than
// IniGroup, which it cannot be if every iteration rescans all P pairs).
// It is built once per IncUpdate call — O(P) — and updated in O(moved ×
// degree) on every merge/split, replacing the O(P) NormalizedInterGroup
// rescans and pairChanges accumulations in the inner loop.
//
// Nothing on the per-edge path hashes: switches are walked in the
// matrices' dense index space (denseViews), and each live group holds a
// slot, so a group pair's weight is one cell of a slots × slots matrix.
// A merge/split frees the slots of the two retired groups for the two it
// creates, so an IncUpdate call needs at most groups + 2 slots.
type cutTracker struct {
	denseView         // current matrix
	prevAdj   [][]nbr // snapshot adjacency; may be nil or shorter (prefix space)

	assign []int32                 // dense index → slot of its current group, or noSlot
	slot   map[model.GroupID]int32 // live group → slot
	group  []model.GroupID         // slot → group, model.NoGroup while free
	free   []int32
	// cur and prevW hold the inter-group weight per group pair under the
	// current and snapshot matrices, both under the CURRENT grouping
	// (pairChanges ranks growth under the present assignment). Cell
	// i*len(group)+j with slot i < slot j holds the pair's weight; the
	// rest stay zero.
	cur   []float64
	prevW []float64
	// inter is W_inter over the current matrix: all traffic crossing
	// groups, including traffic touching unassigned (controller-handled)
	// switches.
	inter float64
	total float64
}

// crossing reports whether traffic between slots sa and sb counts as
// inter-group: it does unless both endpoints share a real group.
func crossing(sa, sb int32) bool {
	return sa != sb || sa == noSlot
}

// newCutTracker builds the tracker for grp over the current and snapshot
// matrices in one O(P) pass each.
func newCutTracker(grp *Grouping, src, prev intensityMatrix) *cutTracker {
	t := &cutTracker{
		slot:  make(map[model.GroupID]int32, grp.NumGroups()+2),
		total: src.Total(),
	}
	t.denseView, t.prevAdj = denseViews(src, prev)
	t.resize(grp.NumGroups() + 2)
	t.assign = make([]int32, len(t.ids))
	for i, s := range t.ids {
		t.assign[i] = t.slotOf(grp.GroupOf(s))
	}

	// One pass per matrix, visiting each undirected pair once.
	for ia := range t.adj {
		sa := t.assign[ia]
		a := t.ids[ia]
		for _, e := range t.adj[ia] {
			if t.ids[e.to] <= a {
				continue
			}
			sb := t.assign[e.to]
			if crossing(sa, sb) {
				t.inter += e.w
				if sa != noSlot && sb != noSlot {
					t.cur[t.cell(sa, sb)] += e.w
				}
			}
		}
	}
	for ia := range t.prevAdj {
		sa := t.assign[ia]
		a := t.ids[ia]
		for _, e := range t.prevAdj[ia] {
			if t.ids[e.to] <= a {
				continue
			}
			sb := t.assign[e.to]
			if sa != noSlot && sb != noSlot && sa != sb {
				t.prevW[t.cell(sa, sb)] += e.w
			}
		}
	}
	return t
}

// resize re-lays the pair matrices out for n slots (n ≥ the current
// count), keeping every cell and queueing the new slots as free.
func (t *cutTracker) resize(n int) {
	old := len(t.group)
	cur, prevW := make([]float64, n*n), make([]float64, n*n)
	for i := 0; i < old; i++ {
		copy(cur[i*n:i*n+old], t.cur[i*old:(i+1)*old])
		copy(prevW[i*n:i*n+old], t.prevW[i*old:(i+1)*old])
	}
	t.cur, t.prevW = cur, prevW
	t.group = append(t.group, make([]model.GroupID, n-old)...)
	for s := n - 1; s >= old; s-- {
		t.free = append(t.free, int32(s))
	}
}

// slotOf returns g's slot, giving g a free one if it has none yet.
func (t *cutTracker) slotOf(g model.GroupID) int32 {
	if g == model.NoGroup {
		return noSlot
	}
	if s, ok := t.slot[g]; ok {
		return s
	}
	if len(t.free) == 0 {
		t.resize(2 * len(t.group))
	}
	s := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.slot[g] = s
	t.group[s] = g
	return s
}

// release zeroes a retired group's pair cells and frees its slot.
func (t *cutTracker) release(g model.GroupID) {
	s, ok := t.slot[g]
	if !ok {
		return
	}
	for o := range t.group {
		c := t.cell(s, int32(o))
		t.cur[c], t.prevW[c] = 0, 0
	}
	delete(t.slot, g)
	t.group[s] = model.NoGroup
	t.free = append(t.free, s)
}

// cell returns the pair-matrix index of the slot pair {sa, sb}.
func (t *cutTracker) cell(sa, sb int32) int {
	if sa > sb {
		sa, sb = sb, sa
	}
	return int(sa)*len(t.group) + int(sb)
}

// winter returns the normalized inter-group intensity W_inter/W_total.
func (t *cutTracker) winter() float64 {
	if t.total == 0 {
		return 0
	}
	return t.inter / t.total
}

// bump adjusts a tracked group-pair weight, storing zero when it cancels
// to (floating-point) zero.
func bump(m []float64, c int, d float64) {
	v := m[c] + d
	if v > cutEps || v < -cutEps {
		m[c] = v
	} else {
		m[c] = 0
	}
}

// move reassigns switch s to group g (possibly NoGroup) and folds the
// weight deltas of s's incident edges into the tracker. O(degree).
func (t *cutTracker) move(s model.SwitchID, g model.GroupID) {
	ia, ok := t.ix[s]
	if !ok {
		return // unknown to both matrices: no tracked traffic
	}
	sg := t.slotOf(g)
	old := t.assign[ia]
	if old == sg {
		return
	}
	t.assign[ia] = sg
	for _, e := range t.adj[ia] {
		sn := t.assign[e.to]
		if crossing(old, sn) {
			t.inter -= e.w
			if old != noSlot && sn != noSlot && old != sn {
				bump(t.cur, t.cell(old, sn), -e.w)
			}
		}
		if crossing(sg, sn) {
			t.inter += e.w
			if sg != noSlot && sn != noSlot && sg != sn {
				bump(t.cur, t.cell(sg, sn), e.w)
			}
		}
	}
	if int(ia) >= len(t.prevAdj) {
		return // switch joined after the snapshot: no prev-side edges
	}
	for _, e := range t.prevAdj[ia] {
		sn := t.assign[e.to]
		if old != noSlot && sn != noSlot && old != sn {
			bump(t.prevW, t.cell(old, sn), -e.w)
		}
		if sg != noSlot && sn != noSlot && sg != sn {
			bump(t.prevW, t.cell(sg, sn), e.w)
		}
	}
}

// regroup folds one merge/split into the tracker: groups a and b were
// replaced by g0 (members side0) and g1 (members side1). The retired
// groups' cells are zeroed and their slots freed, so pairChanges never
// resurrects them.
func (t *cutTracker) regroup(a, b model.GroupID, side0 []model.SwitchID, g0 model.GroupID, side1 []model.SwitchID, g1 model.GroupID) {
	for _, s := range side0 {
		t.move(s, g0)
	}
	for _, s := range side1 {
		t.move(s, g1)
	}
	t.release(a)
	t.release(b)
}

// pairChanges ranks group pairs by traffic growth since the snapshot
// (then by absolute current traffic). Only pairs with positive current
// traffic are returned. O(slots²), no matrix rescans.
func (t *cutTracker) pairChanges() []groupPairChange {
	var out []groupPairChange
	n := len(t.group)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := t.cur[i*n+j]
			if w <= 0 {
				continue
			}
			a, b := t.group[i], t.group[j]
			if a > b {
				a, b = b, a
			}
			out = append(out, groupPairChange{
				a:       a,
				b:       b,
				current: w,
				change:  w - t.prevW[i*n+j],
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].change != out[j].change {
			return out[i].change > out[j].change
		}
		if out[i].current != out[j].current {
			return out[i].current > out[j].current
		}
		if out[i].a != out[j].a {
			return out[i].a < out[j].a
		}
		return out[i].b < out[j].b
	})
	return out
}
