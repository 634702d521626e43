package graph

import (
	"slices"
	"strings"
	"testing"
)

// TestRepairEvictsLoosestIntoLightest pins repair's two choices. Part 0
// holds six unit vertices under a cap of 4: a 10-weight clique on 0–3,
// vertex 4 tied to it by 3 and vertex 5 by 2. Repair evicts the least
// internally connected vertex first (5, then 4) and sends each to the
// lightest other part: 5 to part 2 (weight 1), then 4 to part 1, which
// ties part 2 at weight 2 and wins on the lower index.
func TestRepairEvictsLoosestIntoLightest(t *testing.T) {
	b := NewBuilder(9)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v, 10)
		}
	}
	b.AddEdge(4, 0, 3)
	b.AddEdge(5, 1, 2)
	b.AddEdge(6, 7, 5)
	g := b.Build()
	part := Partition{0, 0, 0, 0, 0, 0, 1, 1, 2}
	if err := repair(g, part, 3, 4); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if want := (Partition{0, 0, 0, 0, 1, 2, 1, 1, 2}); !slices.Equal(part, want) {
		t.Errorf("repaired partition %v, want %v", part, want)
	}
	if err := g.Validate(part, 3); err != nil {
		t.Error(err)
	}
	if w := g.PartWeights(part, 3); slices.Max(w) > 4 {
		t.Errorf("part weights %v exceed the cap 4", w)
	}
}

// TestRepairFailsWhenNoPartFits: part 0 is one over a cap of 2 and the
// only other part is full, so the evicted vertex has nowhere to go.
func TestRepairFailsWhenNoPartFits(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 4)
	b.AddEdge(1, 2, 4)
	b.AddEdge(3, 4, 4)
	g := b.Build()
	part := Partition{0, 0, 0, 1, 1}
	err := repair(g, part, 2, 2)
	if err == nil || !strings.Contains(err.Error(), "no part can absorb vertex 0") {
		t.Fatalf("repair error = %v, want no part can absorb vertex 0", err)
	}
}
