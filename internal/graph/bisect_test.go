package graph

import (
	"math/rand/v2"
	"testing"
)

func TestBisectTwoClusters(t *testing.T) {
	g, truth := clusteredGraph(t, 2, 15, 33)
	part, cut, err := Bisect(g, BisectOptions{MaxSideWeight: 18, Seed: 5})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if got := g.CutWeight(part); got != cut {
		t.Errorf("reported cut %d, recomputed %d", cut, got)
	}
	w := g.PartWeights(part, 2)
	if w[0] > 18 || w[1] > 18 {
		t.Errorf("side weights %v exceed cap 18", w)
	}
	if w[0] == 0 || w[1] == 0 {
		t.Error("degenerate bisection: one side empty")
	}
	// The natural clusters should be recovered: cut ratio small.
	if ratio := float64(cut) / float64(g.TotalEdgeWeight()); ratio > 0.08 {
		t.Errorf("cut ratio %.3f, want ≤ 0.08", ratio)
	}
	// Cluster agreement.
	agree := 0
	for v := range truth {
		cluster0Side := part[0]
		if (truth[v] == 0) == (part[v] == cluster0Side) {
			agree++
		}
	}
	if agree < 27 { // out of 30
		t.Errorf("agreement = %d/30, want ≥ 27", agree)
	}
}

func TestBisectFindsBridgeWhenBalanced(t *testing.T) {
	// Two triangles + weight-1 bridge; the cap admits the 3/3 split, so
	// growing plus FM must find the bridge, the global min cut.
	b := NewBuilder(6)
	for _, e := range [][3]int64{{0, 1, 10}, {1, 2, 10}, {0, 2, 10}, {3, 4, 10}, {4, 5, 10}, {3, 5, 10}, {2, 3, 1}} {
		b.AddEdge(int(e[0]), int(e[1]), e[2])
	}
	g := b.Build()
	_, cut, err := Bisect(g, BisectOptions{MaxSideWeight: 4, Seed: 1})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if cut != 1 {
		t.Errorf("cut = %d, want 1 (the bridge)", cut)
	}
}

func TestBisectStarBalancedUnderCap(t *testing.T) {
	// A star: the global min cut isolates one leaf, but the cap forces
	// balance.
	b := NewBuilder(10)
	for v := 1; v < 10; v++ {
		b.AddEdge(0, v, 1)
	}
	g := b.Build()
	part, _, err := Bisect(g, BisectOptions{MaxSideWeight: 6, Seed: 2})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	w := g.PartWeights(part, 2)
	if w[0] > 6 || w[1] > 6 {
		t.Errorf("side weights %v exceed cap 6", w)
	}
	if w[0] < 4 || w[1] < 4 {
		t.Errorf("side weights %v, want both ≥ 4", w)
	}
}

func TestBisectInfeasible(t *testing.T) {
	g := NewBuilder(10).Build()
	if _, _, err := Bisect(g, BisectOptions{MaxSideWeight: 4, Seed: 1}); err == nil {
		t.Error("infeasible cap accepted (2×4 < 10)")
	}
	if _, _, err := Bisect(NewBuilder(1).Build(), BisectOptions{Seed: 1}); err == nil {
		t.Error("single-vertex bisection accepted")
	}
}

func TestBisectWeighted(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	b := NewBuilder(40)
	var total int64
	for v := 0; v < 40; v++ {
		w := 1 + int64(rng.IntN(4))
		b.SetVertexWeight(v, w)
		total += w
	}
	for e := 0; e < 200; e++ {
		b.AddEdge(rng.IntN(40), rng.IntN(40), 1+int64(rng.IntN(10)))
	}
	g := b.Build()
	cap := total/2 + total/8
	part, _, err := Bisect(g, BisectOptions{MaxSideWeight: cap, Seed: 3})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	w := g.PartWeights(part, 2)
	if w[0] > cap || w[1] > cap {
		t.Errorf("side weights %v exceed cap %d", w, cap)
	}
}

func TestBisectDefaultCap(t *testing.T) {
	g, _ := clusteredGraph(t, 2, 10, 77)
	part, _, err := Bisect(g, BisectOptions{Seed: 4})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	w := g.PartWeights(part, 2)
	// Default cap is half + 10%: 10+2 = 12 per side for 20 unit vertices.
	if w[0] > 12 || w[1] > 12 {
		t.Errorf("side weights %v exceed default cap 12", w)
	}
}

func TestBisectDeterministic(t *testing.T) {
	g, _ := clusteredGraph(t, 2, 12, 55)
	a, cutA, err := Bisect(g, BisectOptions{Seed: 10, MaxSideWeight: 14})
	if err != nil {
		t.Fatal(err)
	}
	b, cutB, err := Bisect(g, BisectOptions{Seed: 10, MaxSideWeight: 14})
	if err != nil {
		t.Fatal(err)
	}
	if cutA != cutB {
		t.Fatalf("cuts differ: %d vs %d", cutA, cutB)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed produced different bisections")
		}
	}
}

func BenchmarkMinCut(b *testing.B) {
	g, _ := clusteredGraph(b, 2, 20, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MinCut(g); err != nil {
			b.Fatal(err)
		}
	}
}
