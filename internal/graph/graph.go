// Package graph implements the weighted-graph machinery behind LazyCtrl's
// switch grouping: a from-scratch multilevel k-way partitioner (MLkP, after
// Karypis & Kumar), a Stoer–Wagner global minimum cut, and a
// size-constrained Fiduccia–Mattheyses balanced bisection. The grouping
// package composes these into the SGI algorithm.
package graph

import (
	"fmt"
	"sort"
)

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
	totalEW int64 // each undirected edge counted once
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

// SetVertexWeight sets the weight of vertex v (default 1). Weights model
// switch capacity usage (e.g. attached host count) in the grouping
// problem.
func (b *Builder) SetVertexWeight(v int, w int64) {
	if v < 0 || v >= b.n {
		return
	}
	if w < 0 {
		w = 0
	}
	b.vwgt[v] = w
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
		g.totalEW += w
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
	for u, list := range adj {
		for _, e := range list {
			if u < e.To {
				g.totalEW += e.W
			}
		}
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

// TotalEdgeWeight returns the sum of all edge weights, each undirected
// edge counted once.
func (g *Graph) TotalEdgeWeight() int64 { return g.totalEW }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Partition assigns each vertex to a part. Values are part indices ≥ 0,
// or Unassigned.
type Partition []int

// Unassigned marks a vertex not yet placed in any part.
const Unassigned = -1

// NumParts returns 1 + the maximum part index (0 for an empty partition).
func (p Partition) NumParts() int {
	maxPart := -1
	for _, part := range p {
		if part > maxPart {
			maxPart = part
		}
	}
	return maxPart + 1
}

// Clone returns a copy of the partition.
func (p Partition) Clone() Partition {
	q := make(Partition, len(p))
	copy(q, p)
	return q
}

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

// Validate checks that p is a complete partition into at most k parts.
func (g *Graph) Validate(p Partition, k int) error {
	if len(p) != g.N() {
		return fmt.Errorf("graph: partition length %d, want %d", len(p), g.N())
	}
	for v, part := range p {
		if part < 0 || part >= k {
			return fmt.Errorf("graph: vertex %d assigned to part %d, want [0,%d)", v, part, k)
		}
	}
	return nil
}
