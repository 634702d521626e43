package grouping

import (
	"slices"

	"lazyctrl/internal/model"
)

// isIndexPrefix reports whether prev's dense index space is a prefix of
// src's, i.e. every switch has the same index in both. True whenever
// prev is an earlier clone of src's lineage (indices are append-only).
func isIndexPrefix(prev, src *Intensity) bool {
	return len(prev.ids) <= len(src.ids) && slices.Equal(prev.ids, src.ids[:len(prev.ids)])
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
// rescans and group-pair accumulations in the inner loop.
//
// Nothing on the per-edge path hashes: switches are walked in the
// matrices' dense index space, and each live group holds a slot, so a
// group pair's weight is one cell of a slots × slots matrix.
// A merge/split frees the slots of the two retired groups for the two it
// creates, so an IncUpdate call needs at most groups + 2 slots.
type cutTracker struct {
	m       *Intensity // current matrix
	prevAdj [][]nbr    // snapshot adjacency in m's index space; may be nil or shorter

	assign []int32                 // dense index → slot of its current group, or noSlot
	slot   map[model.GroupID]int32 // live group → slot
	group  []model.GroupID         // slot → group, model.NoGroup while free
	free   []int32
	// cur and prevW hold the inter-group weight per group pair under the
	// current and snapshot matrices, both under the CURRENT grouping
	// (bestPair ranks growth under the present assignment). Cell
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
// matrices in one O(P) pass each. prev, when non-nil, must be an index
// prefix of m (isIndexPrefix): the tracker reads both matrices' arrays
// in place.
func newCutTracker(grp *Grouping, m, prev *Intensity) *cutTracker {
	t := &cutTracker{
		m:     m,
		slot:  make(map[model.GroupID]int32, grp.NumGroups()+2),
		total: m.Total(),
	}
	if prev != nil {
		t.prevAdj = prev.adj
	}
	t.resize(grp.NumGroups() + 2)
	t.assign = make([]int32, len(m.ids))
	for i, s := range m.ids {
		t.assign[i] = t.slotOf(grp.GroupOf(s))
	}

	// One pass per matrix, visiting each undirected pair once.
	for ia, list := range m.adj {
		sa := t.assign[ia]
		a := m.ids[ia]
		for _, e := range list {
			if m.ids[e.to] <= a {
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
	for ia, list := range t.prevAdj {
		sa := t.assign[ia]
		a := m.ids[ia]
		for _, e := range list {
			if m.ids[e.to] <= a {
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
	ia, ok := t.m.idx[s]
	if !ok {
		return // unknown to both matrices: no tracked traffic
	}
	sg := t.slotOf(g)
	old := t.assign[ia]
	if old == sg {
		return
	}
	t.assign[ia] = sg
	for _, e := range t.m.adj[ia] {
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
// groups' cells are zeroed and their slots freed, so bestPair never
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

// bestPair returns the group pair IncUpdate merges next: of the pairs
// with positive current traffic, the first under before. ok is false
// when no pair carries traffic. O(slots²), no matrix rescans.
func (t *cutTracker) bestPair() (best groupPairChange, ok bool) {
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
			c := groupPairChange{a: a, b: b, current: w, change: w - t.prevW[i*n+j]}
			if !ok || c.before(best) {
				best, ok = c, true
			}
		}
	}
	return best, ok
}
