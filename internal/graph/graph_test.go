package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestBuilderMergesDuplicateEdges(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 0, 7)
	g := b.Build()
	if g.TotalEdgeWeight() != 12 {
		t.Errorf("TotalEdgeWeight() = %d, want 12", g.TotalEdgeWeight())
	}
	if len(g.Adj(0)) != 1 || len(g.Adj(1)) != 1 {
		t.Errorf("degrees = %d,%d, want 1,1", len(g.Adj(0)), len(g.Adj(1)))
	}
}

func TestBuilderIgnoresSelfLoopsAndBadEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0, 5)
	b.AddEdge(0, 1, 0)
	b.AddEdge(0, 1, -3)
	b.AddEdge(0, 5, 1)
	b.AddEdge(-1, 0, 1)
	g := b.Build()
	if g.TotalEdgeWeight() != 0 {
		t.Errorf("TotalEdgeWeight() = %d, want 0", g.TotalEdgeWeight())
	}
}

func TestVertexWeights(t *testing.T) {
	b := NewBuilder(3)
	b.SetVertexWeight(0, 10)
	b.SetVertexWeight(2, 5)
	g := b.Build()
	if g.TotalVertexWeight() != 16 { // 10 + 1 + 5
		t.Errorf("TotalVertexWeight() = %d, want 16", g.TotalVertexWeight())
	}
	if g.VertexWeight(1) != 1 {
		t.Errorf("default VertexWeight = %d, want 1", g.VertexWeight(1))
	}
}

func TestCutWeight(t *testing.T) {
	// Triangle 0-1-2 with weights 3,4,5; put 2 alone.
	b := NewBuilder(3)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 2, 4)
	b.AddEdge(0, 2, 5)
	g := b.Build()
	p := Partition{0, 0, 1}
	if got := g.CutWeight(p); got != 9 {
		t.Errorf("CutWeight = %d, want 9", got)
	}
	if got := g.CutWeight(Partition{0, 0, 0}); got != 0 {
		t.Errorf("CutWeight(all same) = %d, want 0", got)
	}
}

func TestPartWeights(t *testing.T) {
	b := NewBuilder(4)
	b.SetVertexWeight(3, 7)
	g := b.Build()
	w := g.PartWeights(Partition{0, 1, 1, 0}, 2)
	if w[0] != 8 || w[1] != 2 {
		t.Errorf("PartWeights = %v, want [8 2]", w)
	}
}

func TestValidate(t *testing.T) {
	g := NewBuilder(3).Build()
	if err := g.Validate(Partition{0, 1, 2}, 3); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	if err := g.Validate(Partition{0, 1}, 3); err == nil {
		t.Error("short partition accepted")
	}
	if err := g.Validate(Partition{0, 1, 3}, 3); err == nil {
		t.Error("out-of-range part accepted")
	}
	if err := g.Validate(Partition{0, -1, 1}, 3); err == nil {
		t.Error("unassigned vertex accepted")
	}
}

// clusteredGraph builds nClusters dense clusters of size clusterSize with
// heavy intra-cluster edges and sparse light inter-cluster edges; the
// natural partition is the clusters.
func clusteredGraph(t testing.TB, nClusters, clusterSize int, seed uint64) (*Graph, []int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	n := nClusters * clusterSize
	b := NewBuilder(n)
	truth := make([]int, n)
	for c := 0; c < nClusters; c++ {
		base := c * clusterSize
		for i := 0; i < clusterSize; i++ {
			truth[base+i] = c
			for j := i + 1; j < clusterSize; j++ {
				if rng.Float64() < 0.6 {
					b.AddEdge(base+i, base+j, 50+int64(rng.IntN(50)))
				}
			}
		}
	}
	// Sparse light inter-cluster edges.
	for e := 0; e < n; e++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if truth[u] != truth[v] {
			b.AddEdge(u, v, 1+int64(rng.IntN(3)))
		}
	}
	return b.Build(), truth
}

func TestPartitionKWayRecoversClusters(t *testing.T) {
	g, truth := clusteredGraph(t, 4, 25, 42)
	part, err := PartitionKWay(g, PartitionOptions{K: 4, MaxPartWeight: 30, Seed: 7})
	if err != nil {
		t.Fatalf("PartitionKWay: %v", err)
	}
	if err := g.Validate(part, 4); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	// Cut must be far below total: the clusters dominate.
	cut := g.CutWeight(part)
	if ratio := float64(cut) / float64(g.TotalEdgeWeight()); ratio > 0.05 {
		t.Errorf("cut ratio = %.3f, want ≤ 0.05 (cut=%d total=%d)", ratio, cut, g.TotalEdgeWeight())
	}
	// Size cap respected.
	for p, w := range g.PartWeights(part, 4) {
		if w > 30 {
			t.Errorf("part %d weight %d exceeds cap 30", p, w)
		}
	}
	// Each cluster should land (almost) entirely in one part.
	agree := 0
	for c := 0; c < 4; c++ {
		counts := map[int]int{}
		for v, tc := range truth {
			if tc == c {
				counts[part[v]]++
			}
		}
		best := 0
		for _, cnt := range counts {
			if cnt > best {
				best = cnt
			}
		}
		agree += best
	}
	if agree < 90 { // out of 100 vertices
		t.Errorf("cluster agreement = %d/100, want ≥ 90", agree)
	}
}

func TestPartitionKWayRespectsCapWithVertexWeights(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	b := NewBuilder(60)
	for v := 0; v < 60; v++ {
		b.SetVertexWeight(v, 1+int64(rng.IntN(5)))
	}
	for e := 0; e < 300; e++ {
		b.AddEdge(rng.IntN(60), rng.IntN(60), 1+int64(rng.IntN(20)))
	}
	g := b.Build()
	cap := int64(40)
	k := int(g.TotalVertexWeight()/cap) + 2
	part, err := PartitionKWay(g, PartitionOptions{K: k, MaxPartWeight: cap, Seed: 3})
	if err != nil {
		t.Fatalf("PartitionKWay: %v", err)
	}
	for p, w := range g.PartWeights(part, k) {
		if w > cap {
			t.Errorf("part %d weight %d exceeds cap %d", p, w, cap)
		}
	}
}

func TestPartitionKWayInfeasible(t *testing.T) {
	g := NewBuilder(10).Build()
	if _, err := PartitionKWay(g, PartitionOptions{K: 2, MaxPartWeight: 3, Seed: 1}); err == nil {
		t.Error("infeasible options accepted (2 parts × cap 3 < 10)")
	}
	b := NewBuilder(2)
	b.SetVertexWeight(0, 100)
	if _, err := PartitionKWay(b.Build(), PartitionOptions{K: 2, MaxPartWeight: 50, Seed: 1}); err == nil {
		t.Error("oversized vertex accepted")
	}
	if _, err := PartitionKWay(g, PartitionOptions{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestPartitionKWayK1(t *testing.T) {
	g, _ := clusteredGraph(t, 2, 10, 9)
	part, err := PartitionKWay(g, PartitionOptions{K: 1, Seed: 1})
	if err != nil {
		t.Fatalf("PartitionKWay: %v", err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("K=1 produced multiple parts")
		}
	}
	if g.CutWeight(part) != 0 {
		t.Error("K=1 cut nonzero")
	}
}

func TestPartitionKWayEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	part, err := PartitionKWay(g, PartitionOptions{K: 3, Seed: 1})
	if err != nil {
		t.Fatalf("PartitionKWay(empty): %v", err)
	}
	if len(part) != 0 {
		t.Errorf("partition length = %d, want 0", len(part))
	}
}

func TestPartitionKWayDeterministic(t *testing.T) {
	g, _ := clusteredGraph(t, 3, 20, 11)
	a, err := PartitionKWay(g, PartitionOptions{K: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionKWay(g, PartitionOptions{K: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestPartitionKWayDisconnected(t *testing.T) {
	// Two components, no edges between them.
	b := NewBuilder(20)
	for i := 0; i < 9; i++ {
		b.AddEdge(i, i+1, 10)
		b.AddEdge(10+i, 10+i+1, 10)
	}
	g := b.Build()
	part, err := PartitionKWay(g, PartitionOptions{K: 2, MaxPartWeight: 12, Seed: 4})
	if err != nil {
		t.Fatalf("PartitionKWay: %v", err)
	}
	if cut := g.CutWeight(part); cut != 0 {
		t.Errorf("cut = %d, want 0 for disconnected components", cut)
	}
}

func TestPartitionClone(t *testing.T) {
	p := Partition{0, 2, 1}
	q := slices.Clone(p)
	q[0] = 5
	if p[0] != 0 {
		t.Error("Clone shares backing array")
	}
}
