package trace

import (
	"testing"
	"time"

	"lazyctrl/internal/model"
)

// realizedPairs collects the canonical pairs of every flow in a trace.
func realizedPairs(tr *Trace) map[model.FlowKey]struct{} {
	out := make(map[model.FlowKey]struct{})
	for i := range tr.Flows {
		f := &tr.Flows[i]
		out[model.FlowKey{Src: f.Src, Dst: f.Dst}.Canonical()] = struct{}{}
	}
	return out
}

// TestNoisyGeneratorRealizesOneOffPairs sanity-checks the noisy preset:
// it actually realizes pairs outside the communicating pool (the case
// the exclusion machinery exists for), all of them inside the noise
// half of the pair space.
func TestNoisyGeneratorRealizesOneOffPairs(t *testing.T) {
	s, err := NewStream(SmallNoisyConfig("noisy", 3))
	if err != nil {
		t.Fatal(err)
	}
	g := s.(*genStream)
	tr := Materialize(s)
	oneOff := 0
	for k := range realizedPairs(tr) {
		if g.pool.has(k) {
			continue
		}
		oneOff++
		if !g.noiseEligible(k) {
			t.Fatalf("noise pair %v realized outside the noise half", k)
		}
	}
	if oneOff == 0 {
		t.Fatal("noisy preset realized no one-off pairs; the test exercises nothing")
	}
	t.Logf("noisy preset realized %d one-off pairs", oneOff)
}

// TestExpandExcludesNoisePairs pins the ExpandStream exclusion on a
// noisy generator base: no expansion extra may land on any pair the
// base realized — including one-off noise pairs outside the
// communicating pool, which the hash split reserves for the generator.
func TestExpandExcludesNoisePairs(t *testing.T) {
	base, err := NewStream(SmallNoisyConfig("noisy", 11))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := ExpandStream(base, 0.30, 8, 24, 99)
	if err != nil {
		t.Fatal(err)
	}
	baseRealized := realizedPairs(Materialize(base))

	info := exp.Info()
	var bbuf, ebuf []Flow
	extras := 0
	for w := 0; w < info.Windows; w++ {
		bbuf = base.GenWindow(w, bbuf[:0])
		ebuf = exp.GenWindow(w, ebuf[:0])
		// The expanded window is the base window plus extras, re-sorted;
		// identify extras as the multiset difference.
		seen := make(map[Flow]int, len(bbuf))
		for _, f := range bbuf {
			seen[f]++
		}
		for _, f := range ebuf {
			if n := seen[f]; n > 0 {
				seen[f] = n - 1
				continue
			}
			extras++
			k := model.FlowKey{Src: f.Src, Dst: f.Dst}.Canonical()
			if _, dup := baseRealized[k]; dup {
				t.Fatalf("window %d: extra flow landed on realized base pair %v", w, k)
			}
		}
	}
	if want := info.TotalFlows - base.Info().TotalFlows; extras != want {
		t.Errorf("identified %d extras, want %d", extras, want)
	}
}

// TestNoisyWindowsIndependent re-pins window independence under the
// rejection-sampled noise band: out-of-order regeneration must be
// byte-identical.
func TestNoisyWindowsIndependent(t *testing.T) {
	mk := func() Stream {
		s, err := NewStream(SmallNoisyConfig("noisy", 7))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	info := a.Info()
	for _, w := range []int{info.Windows - 1, 0, info.Windows / 3} {
		wa := a.GenWindow(w, nil)
		wb := b.GenWindow(w, nil)
		if len(wa) != len(wb) {
			t.Fatalf("window %d: %d vs %d flows", w, len(wa), len(wb))
		}
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("window %d flow %d differs", w, i)
			}
		}
	}
}

// TestExpandTerminatesUnderTotalNoiseExclusion pins the bounded escape
// of the extras rejection loop: when every pair outside the generator's
// noise half is excluded, so only noise-reserved pairs remain, GenWindow
// must terminate (mirroring the generator's own bounded noise draw)
// instead of spinning forever.
func TestExpandTerminatesUnderTotalNoiseExclusion(t *testing.T) {
	base, err := NewStream(SmallNoisyConfig("degenerate", 5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ExpandStream(base, 0.10, 8, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := s.(*expandStream)
	hosts := e.info.Directory.NumHosts()
	e.base.pool = newPairSet(hosts * (hosts - 1) / 2)
	for a := 1; a <= hosts; a++ {
		for b := a + 1; b <= hosts; b++ {
			k := model.FlowKey{Src: model.HostID(a), Dst: model.HostID(b)}
			if !e.base.noisePairExcluded(k) {
				e.base.pool.insert(k)
			}
		}
	}
	done := make(chan int, 1)
	go func() { done <- len(s.GenWindow(e.info.Windows-1, nil)) }()
	select {
	case n := <-done:
		if n == 0 {
			t.Error("window generated no flows")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("GenWindow hung under total noise exclusion")
	}
}
