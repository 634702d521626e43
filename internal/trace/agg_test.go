package trace

import (
	"testing"

	"lazyctrl/internal/model"
)

// TestAggWindowTotals pins the aggregate form's exactness contract:
// every window's cell counts sum to exactly the per-flow window's flow
// count.
func TestAggWindowTotals(t *testing.T) {
	s, err := NewStream(SmallConfig("small", 7))
	if err != nil {
		t.Fatal(err)
	}
	as, ok := s.(AggStream)
	if !ok {
		t.Fatal("generator stream is not an AggStream")
	}
	info := s.Info()
	var aggTotal int
	for w := 0; w < info.Windows; w++ {
		flows := s.GenWindow(w, nil)
		var sum int
		for _, a := range as.AggWindow(w, nil) {
			if a.Flows <= 0 {
				t.Fatalf("w=%d: non-positive cell count %d", w, a.Flows)
			}
			if a.Src == a.Dst {
				t.Fatalf("w=%d: self-pair cell %v", w, a.Src)
			}
			sum += int(a.Flows)
		}
		if sum != len(flows) {
			t.Fatalf("w=%d: agg total %d, per-flow total %d", w, sum, len(flows))
		}
		aggTotal += sum
	}
	if aggTotal != info.TotalFlows {
		t.Fatalf("agg total %d, want %d", aggTotal, info.TotalFlows)
	}
}

// TestAggWindowDeterministic pins per-window reproducibility: equal
// (config, seed, window) must yield identical cells.
func TestAggWindowDeterministic(t *testing.T) {
	cfg := SmallConfig("det", 11)
	s1, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := s1.(AggStream), s2.(AggStream)
	for _, w := range []int{0, 3, s1.Info().Windows - 1} {
		x := a1.AggWindow(w, nil)
		y := a2.AggWindow(w, nil)
		// Out-of-order regeneration must match too.
		z := a1.AggWindow(w, nil)
		if len(x) != len(y) || len(x) != len(z) {
			t.Fatalf("w=%d: lengths diverge %d/%d/%d", w, len(x), len(y), len(z))
		}
		for i := range x {
			if x[i] != y[i] || x[i] != z[i] {
				t.Fatalf("w=%d cell %d: %v vs %v vs %v", w, i, x[i], y[i], z[i])
			}
		}
	}
}

// TestAggWindowPairPlacement checks that every cell lands on the
// generator's communicating pool (the same invariant the per-flow
// windows satisfy), and that the aggregate per-pair distribution tracks
// the per-flow realization at the pool level: the hot set must carry
// its configured share in both forms.
func TestAggWindowPairPlacement(t *testing.T) {
	cfg := SmallConfig("placement", 3)
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.(*genStream)
	hot := make(map[model.FlowKey]struct{}, len(g.hot))
	for _, k := range g.hot {
		hot[k] = struct{}{}
	}
	info := s.Info()
	var total, hotFlows, hotFlowsPF int
	for w := 0; w < info.Windows; w++ {
		for _, a := range g.AggWindow(w, nil) {
			key := model.FlowKey{Src: a.Src, Dst: a.Dst}.Canonical()
			if !g.pool.has(key) {
				t.Fatalf("w=%d: cell pair %v outside the communicating pool", w, key)
			}
			total += int(a.Flows)
			if _, ok := hot[key]; ok {
				hotFlows += int(a.Flows)
			}
		}
		for _, f := range s.GenWindow(w, nil) {
			key := model.FlowKey{Src: f.Src, Dst: f.Dst}.Canonical()
			if _, ok := hot[key]; ok {
				hotFlowsPF++
			}
		}
	}
	aggShare := float64(hotFlows) / float64(total)
	pfShare := float64(hotFlowsPF) / float64(info.TotalFlows)
	if diff := aggShare - pfShare; diff < -0.02 || diff > 0.02 {
		t.Fatalf("hot share diverges: agg %.3f vs per-flow %.3f", aggShare, pfShare)
	}
}

// TestExpandAggWindow pins the Expand combinator's aggregate form: the
// base cells plus exactly the window's apportioned extras, every extra
// on a previously silent pair.
func TestExpandAggWindow(t *testing.T) {
	base, err := NewStream(SmallConfig("expand-agg", 5))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := ExpandStream(base, 0.30, 8, 24, 99)
	if err != nil {
		t.Fatal(err)
	}
	e := exp.(*expandStream)
	info := exp.Info()
	var extraTotal int
	for w := 0; w < info.Windows; w++ {
		baseCells := base.(AggStream).AggWindow(w, nil)
		cells := e.AggWindow(w, nil)
		extras := cells[len(baseCells):]
		for i := range baseCells {
			if cells[i] != baseCells[i] {
				t.Fatalf("w=%d: base cell %d diverges", w, i)
			}
		}
		for _, a := range extras {
			key := model.FlowKey{Src: a.Src, Dst: a.Dst}.Canonical()
			if e.base.pool.has(key) {
				t.Fatalf("w=%d: extra cell on base pair %v", w, key)
			}
			if a.Flows != 1 {
				t.Fatalf("w=%d: extra cell count %d, want 1", w, a.Flows)
			}
			extraTotal++
		}
		if len(extras) != e.extraCounts[w] {
			t.Fatalf("w=%d: %d extras, want %d", w, len(extras), e.extraCounts[w])
		}
	}
	want := info.TotalFlows - base.Info().TotalFlows
	if extraTotal != want {
		t.Fatalf("extras total %d, want %d", extraTotal, want)
	}
}
