package graph

import "fmt"

// Test-only accessors: tests build weighted graphs and check partitions
// through them; shipped code needs neither.

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

// TotalEdgeWeight returns the sum of all edge weights, each undirected
// edge counted once.
func (g *Graph) TotalEdgeWeight() int64 {
	var total int64
	for u, list := range g.adj {
		for _, e := range list {
			if u < e.To {
				total += e.W
			}
		}
	}
	return total
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
