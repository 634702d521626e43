package grouping

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"lazyctrl/internal/graph"
	"lazyctrl/internal/model"
)

// refBuildGraph and refCutTracker are buildGraph and the cut tracker as
// they were before the dense rewrite: a map-indexed, closure-driven graph
// build that sorts every list, and a tracker keyed by group-pair maps.
// They are kept as the executable specification the dense versions are
// checked against, bit for bit.

// forEachNeighbor calls fn for every switch with positive intensity to
// s, in ascending dense-index (registration) order.
func (m *Intensity) forEachNeighbor(s model.SwitchID, fn func(t model.SwitchID, w float64)) {
	if ia, ok := m.idx[s]; ok {
		for _, e := range m.adj[ia] {
			fn(m.ids[e.to], e.w)
		}
	}
}

func refBuildGraph(m *Intensity, switches []model.SwitchID) *graph.Graph {
	n := len(switches)
	index := make(map[model.SwitchID]int, n)
	for i, sw := range switches {
		index[sw] = i
	}
	scale := weightScale(m.MaxPair())
	deg := make([]int, n)
	for i, sw := range switches {
		m.forEachNeighbor(sw, func(t model.SwitchID, w float64) {
			if _, ok := index[t]; ok {
				deg[i]++
			}
		})
	}
	total := 0
	for _, d := range deg {
		total += d
	}
	backing := make([]graph.Edge, total)
	adj := make([][]graph.Edge, n)
	vwgt := make([]int64, n)
	off := 0
	for i := range adj {
		adj[i] = backing[off : off : off+deg[i]]
		off += deg[i]
		vwgt[i] = 1
	}
	for i, sw := range switches {
		m.forEachNeighbor(sw, func(t model.SwitchID, w float64) {
			j, ok := index[t]
			if !ok {
				return
			}
			wi := int64(w * scale)
			if wi < 1 {
				wi = 1
			}
			adj[i] = append(adj[i], graph.Edge{To: j, W: wi})
		})
		slices.SortFunc(adj[i], func(a, b graph.Edge) int { return cmp.Compare(a.To, b.To) })
	}
	return graph.NewFromAdjacency(adj, vwgt)
}

// gpKey is an unordered group pair (a < b).
type gpKey struct {
	a, b model.GroupID
}

func makeGPKey(a, b model.GroupID) gpKey {
	if a > b {
		a, b = b, a
	}
	return gpKey{a, b}
}

type refCutTracker struct {
	ids     []model.SwitchID         // dense index → switch
	ix      map[model.SwitchID]int32 // switch → dense index
	adj     [][]nbr                  // current-matrix adjacency (both directions)
	prevAdj [][]nbr                  // snapshot adjacency; may be nil or shorter (prefix space)

	assign []model.GroupID // dense index → current group
	// cur and prevW hold the inter-group weight per assigned group pair
	// under the current and snapshot matrices, both keyed by the CURRENT
	// grouping (pairChanges ranks growth under the present assignment).
	cur   map[gpKey]float64
	prevW map[gpKey]float64
	// inter is W_inter over the current matrix: all traffic crossing
	// groups, including traffic touching unassigned (controller-handled)
	// switches.
	inter float64
	total float64
}

// refCrossing reports whether traffic between groups ga and gb counts as
// inter-group: it does unless both endpoints share a real group.
func refCrossing(ga, gb model.GroupID) bool {
	return ga != gb || ga == model.NoGroup
}

// newRefCutTracker builds the tracker for grp over the current and snapshot
// matrices in one O(P) pass each.
func newRefCutTracker(grp *Grouping, src, prev *Intensity) *refCutTracker {
	t := &refCutTracker{
		cur:   make(map[gpKey]float64),
		prevW: make(map[gpKey]float64),
		total: src.Total(),
	}
	// Alias the matrices' own index space and adjacency.
	t.ids = src.ids
	t.ix = src.idx
	t.adj = src.adj
	if prev != nil {
		t.prevAdj = prev.adj
	}

	n := len(t.ids)
	t.assign = make([]model.GroupID, n)
	for i, s := range t.ids {
		t.assign[i] = grp.GroupOf(s)
	}

	// One pass per matrix, visiting each undirected pair once.
	for ia := range t.adj {
		ga := t.assign[ia]
		a := t.ids[ia]
		for _, e := range t.adj[ia] {
			if t.ids[e.to] <= a {
				continue
			}
			gb := t.assign[e.to]
			if refCrossing(ga, gb) {
				t.inter += e.w
				if ga != model.NoGroup && gb != model.NoGroup {
					t.cur[makeGPKey(ga, gb)] += e.w
				}
			}
		}
	}
	for ia := range t.prevAdj {
		ga := t.assign[ia]
		a := t.ids[ia]
		for _, e := range t.prevAdj[ia] {
			if t.ids[e.to] <= a {
				continue
			}
			gb := t.assign[e.to]
			if ga != model.NoGroup && gb != model.NoGroup && ga != gb {
				t.prevW[makeGPKey(ga, gb)] += e.w
			}
		}
	}
	return t
}

// groupOf returns the tracker's current assignment of s.
func (t *refCutTracker) groupOf(s model.SwitchID) model.GroupID {
	if i, ok := t.ix[s]; ok {
		return t.assign[i]
	}
	return model.NoGroup
}

// winter returns the normalized inter-group intensity W_inter/W_total.
func (t *refCutTracker) winter() float64 {
	if t.total == 0 {
		return 0
	}
	return t.inter / t.total
}

// refBump adjusts a tracked group-pair weight, evicting entries that cancel
// to (floating-point) zero.
func refBump(m map[gpKey]float64, k gpKey, d float64) {
	v := m[k] + d
	if v > cutEps || v < -cutEps {
		m[k] = v
	} else {
		delete(m, k)
	}
}

// move reassigns switch s to group g (possibly NoGroup) and folds the
// weight deltas of s's incident edges into the tracker. O(degree).
func (t *refCutTracker) move(s model.SwitchID, g model.GroupID) {
	ia, ok := t.ix[s]
	if !ok {
		return // unknown to both matrices: no tracked traffic
	}
	old := t.assign[ia]
	if old == g {
		return
	}
	t.assign[ia] = g
	for _, e := range t.adj[ia] {
		gn := t.assign[e.to]
		if refCrossing(old, gn) {
			t.inter -= e.w
			if old != model.NoGroup && gn != model.NoGroup && old != gn {
				refBump(t.cur, makeGPKey(old, gn), -e.w)
			}
		}
		if refCrossing(g, gn) {
			t.inter += e.w
			if g != model.NoGroup && gn != model.NoGroup && g != gn {
				refBump(t.cur, makeGPKey(g, gn), e.w)
			}
		}
	}
	if int(ia) >= len(t.prevAdj) {
		return // switch joined after the snapshot: no prev-side edges
	}
	for _, e := range t.prevAdj[ia] {
		gn := t.assign[e.to]
		if old != model.NoGroup && gn != model.NoGroup && old != gn {
			refBump(t.prevW, makeGPKey(old, gn), -e.w)
		}
		if g != model.NoGroup && gn != model.NoGroup && g != gn {
			refBump(t.prevW, makeGPKey(g, gn), e.w)
		}
	}
}

// regroup folds one merge/split into the tracker: groups a and b were
// replaced by g0 (members side0) and g1 (members side1). Residual keys
// of the retired groups are purged so pairChanges never resurrects them.
func (t *refCutTracker) regroup(a, b model.GroupID, side0 []model.SwitchID, g0 model.GroupID, side1 []model.SwitchID, g1 model.GroupID) {
	for _, s := range side0 {
		t.move(s, g0)
	}
	for _, s := range side1 {
		t.move(s, g1)
	}
	purge := func(m map[gpKey]float64) {
		for k := range m {
			if k.a == a || k.b == a || k.a == b || k.b == b {
				delete(m, k)
			}
		}
	}
	purge(t.cur)
	purge(t.prevW)
}

// pairChanges ranks group pairs by traffic growth since the snapshot
// (then by absolute current traffic). Only pairs with positive current
// traffic are returned. O(active group pairs), no matrix rescans.
func (t *refCutTracker) pairChanges() []groupPairChange {
	out := make([]groupPairChange, 0, len(t.cur))
	for k, w := range t.cur {
		if w <= 0 {
			continue
		}
		out = append(out, groupPairChange{
			a:       k.a,
			b:       k.b,
			current: w,
			change:  w - t.prevW[k],
		})
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

// groupOf returns the tracker's current assignment of s.
func (t *cutTracker) groupOf(s model.SwitchID) model.GroupID {
	if i, ok := t.m.idx[s]; ok && t.assign[i] != noSlot {
		return t.group[t.assign[i]]
	}
	return model.NoGroup
}

// trackedPairs reads the pair matrices back in the reference tracker's
// map-keyed form: one entry per non-zero cell.
func (t *cutTracker) trackedPairs() (cur, prevW map[gpKey]float64) {
	cur, prevW = make(map[gpKey]float64), make(map[gpKey]float64)
	n := len(t.group)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := makeGPKey(t.group[i], t.group[j])
			if w := t.cur[i*n+j]; w != 0 {
				cur[k] = w
			}
			if w := t.prevW[i*n+j]; w != 0 {
				prevW[k] = w
			}
		}
	}
	return cur, prevW
}

// randomMatrices draws a current matrix and a snapshot for one reference
// program. The snapshot is an earlier clone of the current matrix's
// lineage, a matrix with traffic of its own over a prefix of the
// current matrix's registrations, or absent; the current matrix then
// grows past it, sometimes by switches the snapshot never saw.
func randomMatrices(rng *rand.Rand, nSwitch int) (m, prev *Intensity) {
	m = NewIntensity()
	sw := func() model.SwitchID { return model.SwitchID(1 + rng.IntN(nSwitch)) }
	rate := func() float64 {
		switch rng.IntN(8) {
		case 0:
			return 2.5e-12 // near the eviction floor
		case 1:
			return float64(1 + rng.IntN(3)) // ties
		}
		return rng.Float64() * 80
	}
	for e := rng.IntN(6 * nSwitch); e > 0; e-- {
		m.Add(sw(), sw(), rate())
	}
	if rng.IntN(6) == 0 {
		m.Decay(0.3 + 0.6*rng.Float64())
	}
	switch rng.IntN(3) {
	case 0:
		prev = m.Clone()
	case 1:
		prev = NewIntensity()
		known := m.ids[:rng.IntN(len(m.ids)+1)]
		for _, s := range known {
			prev.AddSwitch(s)
		}
		for e := rng.IntN(4 * nSwitch); len(known) > 0 && e > 0; e-- {
			prev.Add(known[rng.IntN(len(known))], known[rng.IntN(len(known))], rate())
		}
	}
	for e := rng.IntN(3 * nSwitch); e > 0; e-- {
		a, b := sw(), sw()
		if rng.IntN(4) == 0 {
			b = model.SwitchID(nSwitch + 1 + rng.IntN(8)) // a switch newer than the snapshot
		}
		m.Add(a, b, rate())
	}
	return m, prev
}

func sameGraph(a, b *graph.Graph) error {
	if a.N() != b.N() || a.TotalVertexWeight() != b.TotalVertexWeight() {
		return fmt.Errorf("N/vertex weight %d/%d, reference %d/%d",
			a.N(), a.TotalVertexWeight(), b.N(), b.TotalVertexWeight())
	}
	for v := 0; v < a.N(); v++ {
		if a.VertexWeight(v) != b.VertexWeight(v) {
			return fmt.Errorf("vertex %d weight %d, reference %d", v, a.VertexWeight(v), b.VertexWeight(v))
		}
		if !slices.Equal(a.Adj(v), b.Adj(v)) {
			return fmt.Errorf("vertex %d adjacency %v, reference %v", v, a.Adj(v), b.Adj(v))
		}
	}
	return nil
}

// TestBuildGraphMatchesReference builds graphs over random switch sets —
// the whole matrix as IniGroup asks, or the union of two sorted groups as
// a merge asks, with switches the matrix has never seen — and compares
// every list, in order, with the reference build. One scratch serves
// every program, as an SGI's serves every build, so state a build leaves
// behind would show in the next.
func TestBuildGraphMatchesReference(t *testing.T) {
	var sc graphScratch
	for prog := 0; prog < 1200; prog++ {
		rng := rand.New(rand.NewPCG(uint64(prog), 41))
		nSwitch := 2 + rng.IntN(40)
		m, _ := randomMatrices(rng, nSwitch)
		switches := m.Switches()
		if rng.IntN(3) > 0 {
			var a, b []model.SwitchID
			for s := 1; s <= nSwitch+10; s++ {
				switch rng.IntN(4) {
				case 0:
					a = append(a, model.SwitchID(s))
				case 1:
					b = append(b, model.SwitchID(s))
				}
			}
			switches = append(a, b...)
		}
		g := sc.buildGraph(m, switches)
		want := refBuildGraph(m, switches)
		if err := sameGraph(g, want); err != nil {
			t.Fatalf("program %d: %v", prog, err)
		}
		if i := slices.IndexFunc(sc.sub, func(v int32) bool { return v != -1 }); i >= 0 {
			t.Fatalf("program %d: the build left sub[%d] = %d", prog, i, sc.sub[i])
		}
	}
}

// TestBuildGraphAllocationsFlat pins buildGraph's allocation count: on
// a fresh scratch it must not grow with the number of switches, which a
// per-switch closure escaping to the heap would make it do, and on a
// scratch that has held the switch set it is the graph header alone.
func TestBuildGraphAllocationsFlat(t *testing.T) {
	allocs := func(groups int) (fresh, reused float64) {
		m, _ := communityIntensity(groups, 20, 5)
		switches := m.Switches()
		fresh = testing.AllocsPerRun(20, func() {
			var sc graphScratch
			sc.buildGraph(m, switches)
		})
		var sc graphScratch
		sc.buildGraph(m, switches)
		reused = testing.AllocsPerRun(20, func() { sc.buildGraph(m, switches) })
		return fresh, reused
	}
	small, smallReused := allocs(2)
	large, largeReused := allocs(30)
	if small != large {
		t.Errorf("buildGraph allocates %v times for 40 switches and %v for 600: the count must not grow with n", small, large)
	}
	if smallReused != 1 || largeReused != 1 {
		t.Errorf("buildGraph on a grown scratch allocates %v and %v times, want 1 (the graph)", smallReused, largeReused)
	}
}

func samePairChange(a, b groupPairChange) bool {
	return a.a == b.a && a.b == b.b &&
		math.Float64bits(a.current) == math.Float64bits(b.current) &&
		math.Float64bits(a.change) == math.Float64bits(b.change)
}

func samePairMap(a, b map[gpKey]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, w := range b {
		if v, ok := a[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// TestCutTrackerMatchesReference drives the slot-indexed tracker and the
// map-keyed reference with the same random programs of moves, merge/splits
// and rankings, and compares everything after every step bit for bit:
// W_inter, every pair weight, and bestPair with its floats against the
// head of the reference's ranked pairChanges.
func TestCutTrackerMatchesReference(t *testing.T) {
	const steps = 40
	seen := make(map[string]int)
	for prog := 0; prog < 1200; prog++ {
		rng := rand.New(rand.NewPCG(uint64(prog), 43))
		nSwitch := 4 + rng.IntN(36)
		m, prev := randomMatrices(rng, nSwitch)

		// A random grouping over more switches than the matrices know,
		// some left to the controller.
		grp := NewGrouping()
		nGroups := 1 + rng.IntN(8)
		buckets := make([][]model.SwitchID, nGroups)
		for s := 1; s <= nSwitch+4; s++ {
			if rng.IntN(8) > 0 {
				k := rng.IntN(nGroups)
				buckets[k] = append(buckets[k], model.SwitchID(s))
			}
		}
		var gids []model.GroupID
		for _, members := range buckets {
			if len(members) > 0 {
				gids = append(gids, grp.AddGroup(members))
			}
		}

		got, ref := newCutTracker(grp, m, prev), newRefCutTracker(grp, m, prev)

		nextGID := model.GroupID(100)
		for step := 0; step < steps; step++ {
			op := rng.IntN(10)
			var s model.SwitchID
			var g model.GroupID
			var a, b, g0, g1 model.GroupID
			var side0, side1 []model.SwitchID
			switch {
			case op < 5: // move, sometimes to a fresh group or out of every group
				s = model.SwitchID(1 + rng.IntN(nSwitch+10))
				switch r := rng.IntN(10); {
				case r < 7 && len(gids) > 0:
					g = gids[rng.IntN(len(gids))]
				case r < 9:
					g = nextGID
					nextGID++
					gids = append(gids, g)
				}
			case op < 8: // merge/split two live groups into two fresh ones
				if len(gids) < 2 {
					continue
				}
				i, j := rng.IntN(len(gids)), rng.IntN(len(gids))
				if i == j {
					continue
				}
				a, b = gids[i], gids[j]
				var union []model.SwitchID
				for _, sw := range ref.ids {
					if ga := ref.groupOf(sw); ga == a || ga == b {
						union = append(union, sw)
					}
				}
				union = append(union, model.SwitchID(nSwitch+20+rng.IntN(5))) // unknown to the matrices
				rng.Shuffle(len(union), func(x, y int) { union[x], union[y] = union[y], union[x] })
				cut := rng.IntN(len(union) + 1)
				side0, side1 = union[:cut], union[cut:]
				g0, g1 = nextGID, nextGID+1
				nextGID += 2
				kept := gids[:0:0]
				for _, gid := range gids {
					if gid != a && gid != b {
						kept = append(kept, gid)
					}
				}
				gids = append(kept, g0, g1)
			}
			at := fmt.Sprintf("program %d step %d", prog, step)
			switch {
			case op < 5:
				got.move(s, g)
				ref.move(s, g)
			case op < 8:
				got.regroup(a, b, side0, g0, side1, g1)
				ref.regroup(a, b, side0, g0, side1, g1)
			}
			if math.Float64bits(got.inter) != math.Float64bits(ref.inter) ||
				math.Float64bits(got.winter()) != math.Float64bits(ref.winter()) {
				t.Fatalf("%s: inter %v, reference %v", at, got.inter, ref.inter)
			}
			cur, prevW := got.trackedPairs()
			if !samePairMap(cur, ref.cur) || !samePairMap(prevW, ref.prevW) {
				t.Fatalf("%s: pair weights %v / %v, reference %v / %v", at, cur, prevW, ref.cur, ref.prevW)
			}
			best, ok := got.bestPair()
			want := ref.pairChanges()
			if ok != (len(want) > 0) || ok && !samePairChange(best, want[0]) {
				t.Fatalf("%s: bestPair %v (%v), reference ranking %v", at, best, ok, want)
			}
			if len(want) > 1 {
				seen["ranking of several pairs"]++
			}
			for _, sw := range ref.ids {
				if got, want := got.groupOf(sw), ref.groupOf(sw); got != want {
					t.Fatalf("%s: switch %d in group %d, reference %d", at, sw, got, want)
				}
			}
			if op < 8 && len(got.group) > 2+nGroups {
				seen["slots grown"]++
			}
		}
	}
	for _, class := range []string{"ranking of several pairs", "slots grown"} {
		if seen[class] < 100 {
			t.Errorf("the generator reached %q only %d times", class, seen[class])
		}
	}
}

// TestBestPairOrder pins each key of bestPair's order on four singleton
// groups G1..G4 over switches 1..4, where the random programs rarely
// tie: growth first, then current traffic, then the lower group IDs.
func TestBestPairOrder(t *testing.T) {
	type edge struct {
		a, b model.SwitchID
		w    float64
	}
	for _, tc := range []struct {
		name     string
		cur, old []edge
		a, b     model.GroupID
	}{
		{"growth decides", []edge{{1, 2, 5}, {3, 4, 3}}, []edge{{1, 2, 4}}, 3, 4},
		{"current breaks a growth tie", []edge{{1, 2, 3}, {3, 4, 5}}, []edge{{3, 4, 2}}, 3, 4},
		{"lower a breaks a full tie", []edge{{3, 4, 1}, {1, 2, 1}}, nil, 1, 2},
		{"lower b breaks a full tie", []edge{{1, 3, 1}, {1, 2, 1}}, nil, 1, 2},
	} {
		build := func(edges []edge) *Intensity {
			m := NewIntensity()
			for s := model.SwitchID(1); s <= 4; s++ {
				m.AddSwitch(s)
			}
			for _, e := range edges {
				m.Add(e.a, e.b, e.w)
			}
			return m
		}
		grp := NewGrouping()
		for s := model.SwitchID(1); s <= 4; s++ {
			grp.AddGroup([]model.SwitchID{s})
		}
		best, ok := newCutTracker(grp, build(tc.cur), build(tc.old)).bestPair()
		if !ok || best.a != tc.a || best.b != tc.b {
			t.Errorf("%s: bestPair = %v (%v), want G%d-G%d", tc.name, best, ok, tc.a, tc.b)
		}
	}
}
