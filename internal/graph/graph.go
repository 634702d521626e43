// Package graph implements the weighted-graph machinery behind LazyCtrl's
// switch grouping: a from-scratch multilevel k-way partitioner (MLkP, after
// Karypis & Kumar) and a size-constrained Fiduccia–Mattheyses balanced
// bisection, which the grouping package composes into the SGI algorithm,
// plus a Stoer–Wagner global minimum cut kept for benchmarking.
package graph

import "sort"

// Edge is one endpoint of a weighted undirected edge in an adjacency list.
type Edge struct {
	To int
	W  int64
}

// Graph is an immutable weighted undirected graph. Vertices are dense
// integers [0, N). Construct with Builder.
type Graph struct {
	adj     [][]Edge
	vwgt    []int64
	totalVW int64
}

// Builder accumulates vertices and edges for a Graph. Duplicate edges are
// merged by summing weights; self-loops are ignored.
type Builder struct {
	n    int
	vwgt []int64
	// edges keyed by (min,max) packed pair.
	edges map[[2]int]int64
}

// NewBuilder returns a builder for a graph with n vertices, each with
// vertex weight 1.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	vwgt := make([]int64, n)
	for i := range vwgt {
		vwgt[i] = 1
	}
	return &Builder{n: n, vwgt: vwgt, edges: make(map[[2]int]int64)}
}

// AddEdge adds weight w to the undirected edge (u,v). Zero or negative
// weights and self-loops are ignored.
func (b *Builder) AddEdge(u, v int, w int64) {
	if u == v || w <= 0 || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges[[2]int{u, v}] += w
}

// Build freezes the builder into an immutable Graph.
func (b *Builder) Build() *Graph {
	g := &Graph{
		adj:  make([][]Edge, b.n),
		vwgt: make([]int64, b.n),
	}
	copy(g.vwgt, b.vwgt)
	for _, w := range g.vwgt {
		g.totalVW += w
	}
	deg := make([]int, b.n)
	for key := range b.edges {
		deg[key[0]]++
		deg[key[1]]++
	}
	for v := range g.adj {
		g.adj[v] = make([]Edge, 0, deg[v])
	}
	// Deterministic order: sort keys.
	keys := make([][2]int, 0, len(b.edges))
	for key := range b.edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		w := b.edges[key]
		u, v := key[0], key[1]
		g.adj[u] = append(g.adj[u], Edge{To: v, W: w})
		g.adj[v] = append(g.adj[v], Edge{To: u, W: w})
	}
	return g
}

// NewFromAdjacency adopts prebuilt adjacency lists without the
// Builder's dedup map (the coarsening and subgraph fast paths). The
// caller guarantees the invariants the Builder would otherwise enforce:
// both directions present with equal weights, no self-loops, no
// duplicate neighbors, positive weights. vwgt must have one entry per
// vertex.
func NewFromAdjacency(adj [][]Edge, vwgt []int64) *Graph {
	g := &Graph{adj: adj, vwgt: vwgt}
	for _, w := range vwgt {
		g.totalVW += w
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// Adj returns the adjacency list of v. The caller must not modify it.
func (g *Graph) Adj(v int) []Edge { return g.adj[v] }

// VertexWeight returns the weight of vertex v.
func (g *Graph) VertexWeight(v int) int64 { return g.vwgt[v] }

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int64 { return g.totalVW }

// Partition assigns each vertex to a part. Values are part indices ≥ 0,
// or Unassigned.
type Partition []int

// Unassigned marks a vertex not yet placed in any part.
const Unassigned = -1

// CutWeight returns the total weight of edges crossing parts under p.
func (g *Graph) CutWeight(p Partition) int64 {
	if len(p) != g.N() {
		return 0
	}
	var cut int64
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if u < e.To && p[u] != p[e.To] {
				cut += e.W
			}
		}
	}
	return cut
}

// PartWeights returns the vertex-weight of every part in [0,k).
func (g *Graph) PartWeights(p Partition, k int) []int64 {
	w := make([]int64, k)
	for v, part := range p {
		if part >= 0 && part < k {
			w[part] += g.vwgt[v]
		}
	}
	return w
}
