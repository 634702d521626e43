package graph

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
)

// PartitionOptions configures the multilevel k-way partitioner.
type PartitionOptions struct {
	// K is the number of parts. Must be ≥ 1.
	K int
	// MaxPartWeight caps the vertex weight of every part. Zero means
	// "balanced": ceil(total/K) plus the default imbalance tolerance.
	MaxPartWeight int64
	// Seed drives all randomized choices; equal seeds give equal results.
	Seed uint64
}

// refinePasses bounds the refinement sweeps per uncoarsening level.
const refinePasses = 8

// coarsenTo is the vertex count at which coarsening stops: enough
// vertices per part for the initial partition to express affinity.
func coarsenTo(k int) int { return max(20*k, 80) }

func (o *PartitionOptions) withDefaults(g *Graph) (PartitionOptions, error) {
	opts := *o
	if opts.K < 1 {
		return opts, errors.New("graph: K must be ≥ 1")
	}
	if opts.MaxPartWeight == 0 {
		target := (g.TotalVertexWeight() + int64(opts.K) - 1) / int64(opts.K)
		opts.MaxPartWeight = target + target/10 + 1
	}
	if opts.MaxPartWeight*int64(opts.K) < g.TotalVertexWeight() {
		return opts, fmt.Errorf("graph: infeasible: %d parts of weight ≤ %d cannot hold total weight %d",
			opts.K, opts.MaxPartWeight, g.TotalVertexWeight())
	}
	maxVW := int64(0)
	for v := 0; v < g.N(); v++ {
		if w := g.VertexWeight(v); w > maxVW {
			maxVW = w
		}
	}
	if maxVW > opts.MaxPartWeight {
		return opts, fmt.Errorf("graph: infeasible: vertex weight %d exceeds part cap %d", maxVW, opts.MaxPartWeight)
	}
	return opts, nil
}

// PartitionKWay computes a k-way partition of g minimizing edge cut
// subject to the per-part weight cap, using the multilevel scheme:
// heavy-edge-matching coarsening, greedy-growing initial partitioning,
// and boundary Kernighan–Lin refinement during uncoarsening.
func PartitionKWay(g *Graph, o PartitionOptions) (Partition, error) {
	opts, err := o.withDefaults(g)
	if err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return Partition{}, nil
	}
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0xa5a5a5a55a5a5a5a))

	// Coarsening phase. The scratch buffers are shared across levels so
	// each contraction only allocates its own cmap and coarse graph.
	type level struct {
		g    *Graph
		cmap []int // fine vertex -> coarse vertex (for the NEXT level)
	}
	levels := []level{{g: g}}
	cur := g
	var cs coarsenScratch
	for cur.N() > coarsenTo(opts.K) {
		coarse, cmap := coarsen(cur, opts.MaxPartWeight, rng, &cs)
		if coarse.N() >= cur.N() || float64(coarse.N()) > 0.95*float64(cur.N()) {
			break // matching stalled; stop coarsening
		}
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{g: coarse})
		cur = coarse
	}

	// Initial partitioning on the coarsest graph.
	coarsest := levels[len(levels)-1].g
	part := growInitial(coarsest, opts.K, opts.MaxPartWeight, rng)
	refine(coarsest, part, opts.K, opts.MaxPartWeight, rng)

	// Uncoarsening with refinement.
	for i := len(levels) - 2; i >= 0; i-- {
		fine := levels[i].g
		cmap := levels[i].cmap
		finePart := make(Partition, fine.N())
		for v := range finePart {
			finePart[v] = part[cmap[v]]
		}
		part = finePart
		refine(fine, part, opts.K, opts.MaxPartWeight, rng)
	}

	if err := repair(g, part, opts.K, opts.MaxPartWeight); err != nil {
		return nil, err
	}
	return part, nil
}

// coarsenScratch holds the buffers coarsen reuses across levels: the
// matching state, the shuffled visit order, the constituent lists, the
// duplicate-merging position markers, and the unsorted coarse adjacency.
// Only cmap and the coarse graph itself outlive a level, so only they are
// freshly allocated.
type coarsenScratch struct {
	match  []int
	order  []int
	first  []int  // coarse vertex -> first fine constituent
	second []int  // coarse vertex -> matched partner, or -1
	pos    []int  // coarse target -> position in the list under construction
	edges  []Edge // unsorted coarse lists, list c at edges[start[c]:start[c+1]]
	start  []int
}

func intsOf(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// shuffledOrder fills buf with a random permutation of [0,n).
func shuffledOrder(buf []int, n int, rng *rand.Rand) []int {
	order := intsOf(buf, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// coarsen contracts a heavy-edge matching of g. Matches whose combined
// vertex weight would exceed cap are skipped so that feasibility is
// preserved through the hierarchy. The coarse lists are merged without a
// dedup map into the scratch buffer, then transposed into one exactly
// sized edge arena, so a contraction allocates cmap, the vertex weights,
// the arena, the list headers and the Graph, and sorts nothing.
func coarsen(g *Graph, cap int64, rng *rand.Rand, cs *coarsenScratch) (*Graph, []int) {
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
	// edge, so the first (largest) level sizes the buffer for all.
	edges := slices.Grow(cs.edges[:0], directed)
	start := intsOf(cs.start, nc+1)
	cs.start = start
	for c := 0; c < nc; c++ {
		s := len(edges)
		start[c] = s
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
					edges[s+p].W += e.W
				} else {
					pos[tc] = len(edges) - s
					edges = append(edges, Edge{To: tc, W: e.W})
				}
			}
		}
		for _, e := range edges[s:] {
			pos[e.To] = -1
		}
	}
	start[nc] = len(edges)
	cs.edges = edges

	// Transpose: visiting sources in ascending order appends ascending
	// targets, so every list comes out in the ascending neighbor order the
	// Builder produced — greedy tie-breaks downstream are order-sensitive,
	// so adjacency order is part of the deterministic contract. The lists
	// are symmetric (integer weights summed in any order agree), so list
	// c's length is also the number of lists that name c.
	arena := make([]Edge, len(edges))
	adj := make([][]Edge, nc)
	off := 0
	for c := range adj {
		d := start[c+1] - start[c]
		adj[c] = arena[off : off : off+d]
		off += d
	}
	for c := 0; c < nc; c++ {
		for _, e := range edges[start[c]:start[c+1]] {
			adj[e.To] = append(adj[e.To], Edge{To: c, W: e.W})
		}
	}
	return NewFromAdjacency(adj, vwgt), cmap
}

// frontier is the growing part's frontier: an indexed binary max-heap
// holding each offered vertex once, keyed by connectivity to the part
// (descending) and then by entry order (ascending) — the vertex a scan of
// the frontier in entry order with a strict > would pick.
type frontier struct {
	conn    []int64 // connectivity to the part being grown
	seq     []int32 // entry order into the frontier; 0 = never entered
	at      []int32 // heap position + 1; 0 = not in the heap
	heap    []int32
	entered int32
}

func newFrontier(n int) *frontier {
	return &frontier{conn: make([]int64, n), seq: make([]int32, n), at: make([]int32, n)}
}

func (f *frontier) reset() {
	clear(f.conn)
	clear(f.seq)
	clear(f.at)
	f.heap = f.heap[:0]
	f.entered = 0
}

func (f *frontier) outranks(u, v int32) bool {
	if f.conn[u] != f.conn[v] {
		return f.conn[u] > f.conn[v]
	}
	return f.seq[u] < f.seq[v]
}

// offer adds w to v's connectivity, entering v on its first offer. A
// vertex already popped — assigned, or too heavy for this part — stays
// out.
func (f *frontier) offer(v int32, w int64) {
	f.conn[v] += w
	switch {
	case f.seq[v] == 0:
		f.entered++
		f.seq[v] = f.entered
		f.heap = append(f.heap, v)
		f.up(len(f.heap) - 1)
	case f.at[v] > 0:
		f.up(int(f.at[v]) - 1) // a key only grows, so it only rises
	}
}

// pop removes and returns the top vertex.
func (f *frontier) pop() int32 {
	h := f.heap
	top, last := h[0], h[len(h)-1]
	f.at[top] = 0
	h = h[:len(h)-1]
	f.heap = h
	if len(h) == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && f.outranks(h[c+1], h[c]) {
			c++
		}
		if !f.outranks(h[c], last) {
			break
		}
		h[i] = h[c]
		f.at[h[i]] = int32(i + 1)
		i = c
	}
	h[i] = last
	f.at[last] = int32(i + 1)
	return top
}

func (f *frontier) up(i int) {
	h := f.heap
	v := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !f.outranks(v, h[parent]) {
			break
		}
		h[i] = h[parent]
		f.at[h[i]] = int32(i + 1)
		i = parent
	}
	h[i] = v
	f.at[v] = int32(i + 1)
}

// growInitial produces a feasible initial k-way partition by greedy graph
// growing: each part grows from a random seed, absorbing the unassigned
// neighbor with the strongest connection until the part reaches its
// weight target. Ties go to the neighbor that entered the frontier first.
func growInitial(g *Graph, k int, cap int64, rng *rand.Rand) Partition {
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
	f := newFrontier(n)

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
		f.reset()
		v := seed
		for {
			part[v] = p
			weights[p] += g.VertexWeight(v)
			unassigned--
			for _, e := range g.Adj(v) {
				if part[e.To] == Unassigned {
					f.offer(int32(e.To), e.W)
				}
			}
			if weights[p] >= target || unassigned == 0 {
				break
			}
			// Choose the frontier vertex with max connectivity that fits.
			// weights[p] only grows, so a vertex that does not fit now
			// never fits this part and is dropped.
			v = Unassigned
			for len(f.heap) > 0 {
				if u := int(f.pop()); weights[p]+g.VertexWeight(u) <= cap {
					v = u
					break
				}
			}
			if v == Unassigned {
				break // disconnected or no fitting vertex: stop growing
			}
		}
	}

	// Place leftovers: strongest-connected feasible part, else lightest
	// feasible part.
	connTo := make([]int64, k)
	for v := 0; v < n; v++ {
		if part[v] != Unassigned {
			continue
		}
		clear(connTo)
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

// refine runs greedy boundary Kernighan–Lin sweeps: every pass visits
// boundary vertices in random order and moves a vertex to the adjacent
// part with the highest positive gain, subject to the weight cap.
func refine(g *Graph, part Partition, k int, cap int64, rng *rand.Rand) {
	n := g.N()
	weights := g.PartWeights(part, k)
	connTo := make([]int64, k)
	var orderBuf []int

	for pass := 0; pass < refinePasses; pass++ {
		improved := false
		orderBuf = shuffledOrder(orderBuf, n, rng)
		for _, v := range orderBuf {
			own := part[v]
			// Compute connectivity of v to each part; skip interior
			// vertices quickly.
			boundary := false
			for i := range connTo {
				connTo[i] = 0
			}
			for _, e := range g.Adj(v) {
				connTo[part[e.To]] += e.W
				if part[e.To] != own {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			bestPart, bestGain := own, int64(0)
			for p := 0; p < k; p++ {
				if p == own || connTo[p] == 0 {
					continue
				}
				if weights[p]+g.VertexWeight(v) > cap {
					continue
				}
				gain := connTo[p] - connTo[own]
				if gain > bestGain {
					bestPart, bestGain = p, gain
				} else if gain == bestGain && bestGain > 0 && weights[p] < weights[bestPart] {
					bestPart = p
				}
			}
			if bestPart != own {
				weights[own] -= g.VertexWeight(v)
				weights[bestPart] += g.VertexWeight(v)
				part[v] = bestPart
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// repair enforces the weight cap by evicting the loosest vertices from
// overweight parts into the lightest feasible parts.
func repair(g *Graph, part Partition, k int, cap int64) error {
	weights := g.PartWeights(part, k)
	for p := 0; p < k; p++ {
		for weights[p] > cap {
			// Evict the vertex with minimum internal connectivity.
			evict, evictConn := -1, int64(1<<62)
			for v := range part {
				if part[v] != p {
					continue
				}
				var internal int64
				for _, e := range g.Adj(v) {
					if part[e.To] == p {
						internal += e.W
					}
				}
				if internal < evictConn {
					evict, evictConn = v, internal
				}
			}
			if evict == -1 {
				return fmt.Errorf("graph: repair failed: part %d overweight (%d > %d) but empty", p, weights[p], cap)
			}
			dest := -1
			for q := 0; q < k; q++ {
				if q == p || weights[q]+g.VertexWeight(evict) > cap {
					continue
				}
				if dest == -1 || weights[q] < weights[dest] {
					dest = q
				}
			}
			if dest == -1 {
				return fmt.Errorf("graph: repair failed: no part can absorb vertex %d (weight %d)", evict, g.VertexWeight(evict))
			}
			weights[p] -= g.VertexWeight(evict)
			weights[dest] += g.VertexWeight(evict)
			part[evict] = dest
		}
	}
	return nil
}
