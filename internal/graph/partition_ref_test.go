package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// refMinCut, refGrowInitial and refCoarsen are MinCut, growInitial and
// coarsen as they were before the array rewrite: map-based maximum
// adjacency search, a frontier that holds every neighbor once per edge,
// and a coarsening that sorts every list. They are kept as the executable
// specification the rewritten versions are checked against, output and
// random draws alike.

func refMinCut(g *Graph) (int64, []bool, error) {
	n := g.N()
	if n < 2 {
		return 0, nil, errors.New("graph: MinCut requires ≥ 2 vertices")
	}

	// Dense working copy of the adjacency matrix; merged vertices
	// accumulate edges.
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Adj(u) {
			w[u][e.To] = e.W
		}
	}

	// members[i] lists the original vertices merged into super-vertex i.
	members := make([][]int, n)
	active := make([]int, n)
	for i := 0; i < n; i++ {
		members[i] = []int{i}
		active[i] = i
	}

	bestCut := int64(1 << 62)
	var bestSide []int

	for len(active) > 1 {
		// Maximum adjacency search from active[0].
		inA := make(map[int]bool, len(active))
		conn := make(map[int]int64, len(active))
		order := make([]int, 0, len(active))

		start := active[0]
		inA[start] = true
		order = append(order, start)
		for _, v := range active {
			if v != start {
				conn[v] = w[start][v]
			}
		}
		for len(order) < len(active) {
			// Pick the most connected vertex not in A.
			best, bestW := -1, int64(-1)
			for _, v := range active {
				if inA[v] {
					continue
				}
				if conn[v] > bestW {
					best, bestW = v, conn[v]
				}
			}
			inA[best] = true
			order = append(order, best)
			for _, v := range active {
				if !inA[v] {
					conn[v] += w[best][v]
				}
			}
		}

		// Cut-of-the-phase: the last vertex added, separated from the rest.
		t := order[len(order)-1]
		s := order[len(order)-2]
		cutOfPhase := int64(0)
		for _, v := range active {
			if v != t {
				cutOfPhase += w[t][v]
			}
		}
		if cutOfPhase < bestCut {
			bestCut = cutOfPhase
			bestSide = append([]int(nil), members[t]...)
		}

		// Merge t into s.
		for _, v := range active {
			if v != s && v != t {
				w[s][v] += w[t][v]
				w[v][s] = w[s][v]
			}
		}
		members[s] = append(members[s], members[t]...)
		// Remove t from active.
		next := active[:0]
		for _, v := range active {
			if v != t {
				next = append(next, v)
			}
		}
		active = next
	}

	side := make([]bool, n)
	for _, v := range bestSide {
		side[v] = true
	}
	return bestCut, side, nil
}

func refGrowInitial(g *Graph, k int, cap int64, rng *rand.Rand) Partition {
	n := g.N()
	part := make(Partition, n)
	for v := range part {
		part[v] = Unassigned
	}
	target := g.TotalVertexWeight() / int64(k)
	if target < 1 {
		target = 1
	}

	unassigned := n
	weights := make([]int64, k)
	conn := make([]int64, n) // connectivity to the part being grown

	for p := 0; p < k && unassigned > 0; p++ {
		// Pick a random unassigned seed.
		seed := Unassigned
		offset := rng.IntN(n)
		for i := 0; i < n; i++ {
			v := (offset + i) % n
			if part[v] == Unassigned {
				seed = v
				break
			}
		}
		if seed == Unassigned {
			break
		}
		for i := range conn {
			conn[i] = 0
		}
		frontier := []int{seed}
		assign := func(v int) {
			part[v] = p
			weights[p] += g.VertexWeight(v)
			unassigned--
			for _, e := range g.Adj(v) {
				if part[e.To] == Unassigned {
					conn[e.To] += e.W
					frontier = append(frontier, e.To)
				}
			}
		}
		assign(seed)
		for weights[p] < target && unassigned > 0 {
			// Choose the frontier vertex with max connectivity that fits.
			best, bestConn := Unassigned, int64(-1)
			for _, v := range frontier {
				if part[v] != Unassigned {
					continue
				}
				if weights[p]+g.VertexWeight(v) > cap {
					continue
				}
				if conn[v] > bestConn {
					best, bestConn = v, conn[v]
				}
			}
			if best == Unassigned {
				break // disconnected or no fitting vertex: stop growing
			}
			assign(best)
			// Compact the frontier occasionally to bound growth.
			if len(frontier) > 4*n {
				compact := frontier[:0]
				for _, v := range frontier {
					if part[v] == Unassigned {
						compact = append(compact, v)
					}
				}
				frontier = compact
			}
		}
	}

	// Place leftovers: strongest-connected feasible part, else lightest
	// feasible part.
	for v := 0; v < n; v++ {
		if part[v] != Unassigned {
			continue
		}
		connTo := make([]int64, k)
		for _, e := range g.Adj(v) {
			if part[e.To] != Unassigned {
				connTo[part[e.To]] += e.W
			}
		}
		best, bestScore := -1, int64(-1)
		for p := 0; p < k; p++ {
			if weights[p]+g.VertexWeight(v) > cap {
				continue
			}
			if connTo[p] > bestScore {
				best, bestScore = p, connTo[p]
			}
		}
		if best == -1 {
			// All parts at cap: pick the lightest regardless; repair will
			// never be reached because withDefaults guarantees total
			// feasibility, but stay safe.
			best = 0
			for p := 1; p < k; p++ {
				if weights[p] < weights[best] {
					best = p
				}
			}
		}
		part[v] = best
		weights[best] += g.VertexWeight(v)
	}
	return part
}

type refCoarsenScratch struct {
	match  []int
	order  []int
	first  []int // coarse vertex -> first fine constituent
	second []int // coarse vertex -> matched partner, or -1
	pos    []int // coarse target -> position in the list under construction
}

func refCoarsen(g *Graph, cap int64, rng *rand.Rand, cs *refCoarsenScratch) (*Graph, []int) {
	n := g.N()
	match := intsOf(cs.match, n)
	cs.match = match
	for v := range match {
		match[v] = Unassigned
	}
	cs.order = shuffledOrder(cs.order, n, rng)
	for _, v := range cs.order {
		if match[v] != Unassigned {
			continue
		}
		best, bestW := v, int64(-1)
		for _, e := range g.Adj(v) {
			if match[e.To] != Unassigned {
				continue
			}
			if g.VertexWeight(v)+g.VertexWeight(e.To) > cap {
				continue
			}
			if e.W > bestW {
				best, bestW = e.To, e.W
			}
		}
		match[v] = best
		match[best] = v
	}

	cmap := make([]int, n) // outlives the level: stored in the hierarchy
	for v := range cmap {
		cmap[v] = Unassigned
	}
	first := intsOf(cs.first, n)[:0]
	second := intsOf(cs.second, n)[:0]
	nc := 0
	for v := 0; v < n; v++ {
		if cmap[v] != Unassigned {
			continue
		}
		cmap[v] = nc
		first = append(first, v)
		if match[v] != v {
			cmap[match[v]] = nc
			second = append(second, match[v])
		} else {
			second = append(second, -1)
		}
		nc++
	}
	cs.first, cs.second = first, second

	vwgt := make([]int64, nc)
	directed := 0
	for v := 0; v < n; v++ {
		vwgt[cmap[v]] += g.VertexWeight(v)
		directed += len(g.Adj(v))
	}

	pos := intsOf(cs.pos, nc)
	cs.pos = pos
	for i := range pos {
		pos[i] = -1
	}
	// Every coarse directed edge comes from at least one fine directed
	// edge, so the arena never reallocates and the sub-slices below stay
	// valid.
	arena := make([]Edge, 0, directed)
	adj := make([][]Edge, nc)
	for c := 0; c < nc; c++ {
		start := len(arena)
		for _, u := range [2]int{first[c], second[c]} {
			if u < 0 {
				continue
			}
			for _, e := range g.Adj(u) {
				tc := cmap[e.To]
				if tc == c {
					continue // contracted: internal edge disappears
				}
				if p := pos[tc]; p >= 0 {
					arena[start+p].W += e.W
				} else {
					pos[tc] = len(arena) - start
					arena = append(arena, Edge{To: tc, W: e.W})
				}
			}
		}
		list := arena[start:len(arena):len(arena)]
		for _, e := range list {
			pos[e.To] = -1
		}
		// Ascending neighbor order, matching what the Builder produced:
		// greedy tie-breaks downstream are order-sensitive, so adjacency
		// order is part of the deterministic contract.
		slices.SortFunc(list, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
		adj[c] = list
	}
	return NewFromAdjacency(adj, vwgt), cmap
}

// randomRefGraph draws the inputs the reference tests share: tied and
// spread edge weights, unit and non-unit vertex weights, isolated
// vertices, and several components with no edge between them.
func randomRefGraph(rng *rand.Rand, maxN int) *Graph {
	n := 2 + rng.IntN(maxN-1)
	b := NewBuilder(n)
	if rng.IntN(2) == 0 {
		for v := 0; v < n; v++ {
			b.SetVertexWeight(v, 1+int64(rng.IntN(5)))
		}
	}
	comps := 1 + rng.IntN(3) // vertex v lies in component v % comps
	density := 0.1 + 0.8*rng.Float64()
	maxW := int64(1 + rng.IntN(3))
	if rng.IntN(2) == 0 {
		maxW = 1000
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u%comps == v%comps && rng.Float64() < density {
				b.AddEdge(u, v, 1+rng.Int64N(maxW))
			}
		}
	}
	return b.Build()
}

func sameGraphs(a, b *Graph) error {
	if a.N() != b.N() || a.TotalEdgeWeight() != b.TotalEdgeWeight() || a.TotalVertexWeight() != b.TotalVertexWeight() {
		return fmt.Errorf("N/edge/vertex weight %d/%d/%d, reference %d/%d/%d",
			a.N(), a.TotalEdgeWeight(), a.TotalVertexWeight(), b.N(), b.TotalEdgeWeight(), b.TotalVertexWeight())
	}
	for v := 0; v < a.N(); v++ {
		if a.VertexWeight(v) != b.VertexWeight(v) || !slices.Equal(a.Adj(v), b.Adj(v)) {
			return fmt.Errorf("vertex %d: weight %d adjacency %v, reference %d %v",
				v, a.VertexWeight(v), a.Adj(v), b.VertexWeight(v), b.Adj(v))
		}
	}
	return nil
}

// TestMinCutMatchesReference compares cut weight and side assignment
// with the map-based reference on random graphs up to Bisect's 128-vertex
// limit's scale.
func TestMinCutMatchesReference(t *testing.T) {
	for prog := 0; prog < 1200; prog++ {
		rng := rand.New(rand.NewPCG(uint64(prog), 47))
		g := randomRefGraph(rng, 40)
		cut, side, err := MinCut(g)
		wantCut, wantSide, wantErr := refMinCut(g)
		if err != nil || wantErr != nil {
			t.Fatalf("program %d: errors %v, reference %v", prog, err, wantErr)
		}
		if cut != wantCut || !slices.Equal(side, wantSide) {
			t.Fatalf("program %d: cut %d side %v, reference %d %v", prog, cut, side, wantCut, wantSide)
		}
	}
}

// TestGrowInitialMatchesReference compares partitions and the random
// stream left behind, with caps that range from forcing skips (and
// leftovers) to never binding.
func TestGrowInitialMatchesReference(t *testing.T) {
	skipped := 0
	for prog := 0; prog < 1200; prog++ {
		rng := rand.New(rand.NewPCG(uint64(prog), 53))
		g := randomRefGraph(rng, 80)
		k := 1 + rng.IntN(6)
		var maxVW int64
		for v := 0; v < g.N(); v++ {
			maxVW = max(maxVW, g.VertexWeight(v))
		}
		cap := maxVW + rng.Int64N(g.TotalVertexWeight())
		seed := rng.Uint64()
		a, b := rand.New(rand.NewPCG(seed, 1)), rand.New(rand.NewPCG(seed, 1))
		part, want := growInitial(g, k, cap, a), refGrowInitial(g, k, cap, b)
		if !slices.Equal(part, want) {
			t.Fatalf("program %d (k=%d cap=%d): %v, reference %v", prog, k, cap, part, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("program %d: random stream diverged from the reference", prog)
		}
		if cap < g.TotalVertexWeight()/int64(k)+maxVW {
			skipped++
		}
	}
	if skipped < 100 {
		t.Errorf("only %d programs had a cap tight enough to skip a vertex", skipped)
	}
}

// TestCoarsenMatchesReference contracts random graphs level by level,
// reusing one scratch across the levels as PartitionKWay does, and
// compares every coarse graph, its adjacency order, cmap and the random
// stream with the sorting reference.
func TestCoarsenMatchesReference(t *testing.T) {
	for prog := 0; prog < 1200; prog++ {
		rng := rand.New(rand.NewPCG(uint64(prog), 59))
		g := randomRefGraph(rng, 120)
		cap := 2 + rng.Int64N(12)
		seed := rng.Uint64()
		a, b := rand.New(rand.NewPCG(seed, 2)), rand.New(rand.NewPCG(seed, 2))
		var cs coarsenScratch
		var refCS refCoarsenScratch
		got, want := g, g
		for level := 0; level < 4 && got.N() > 1; level++ {
			var cmap, wantCmap []int
			got, cmap = coarsen(got, cap, a, &cs)
			want, wantCmap = refCoarsen(want, cap, b, &refCS)
			if err := sameGraphs(got, want); err != nil {
				t.Fatalf("program %d level %d: %v", prog, level, err)
			}
			if !slices.Equal(cmap, wantCmap) {
				t.Fatalf("program %d level %d: cmap %v, reference %v", prog, level, cmap, wantCmap)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("program %d: random stream diverged from the reference", prog)
		}
	}
}
