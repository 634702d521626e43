package trace

import (
	"testing"
	"time"

	"lazyctrl/internal/model"
)

func smallTrace(t testing.TB, seed uint64) *Trace {
	t.Helper()
	tr, err := Generate(SmallConfig("small", seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tr
}

func TestGenerateBasicShape(t *testing.T) {
	tr := smallTrace(t, 1)
	if tr.NumFlows() != 40_000 {
		t.Errorf("NumFlows = %d, want 40000", tr.NumFlows())
	}
	if n := len(tr.Directory.TenantIDs()); n != 12 {
		t.Errorf("tenants = %d, want 12", n)
	}
	// Sorted by start, all within duration.
	for i := 1; i < len(tr.Flows); i++ {
		if tr.Flows[i].Start < tr.Flows[i-1].Start {
			t.Fatal("flows not sorted by start time")
		}
	}
	for i := range tr.Flows {
		f := &tr.Flows[i]
		if f.Start < 0 || f.Start >= tr.Duration {
			t.Fatalf("flow %d start %v outside [0,%v)", i, f.Start, tr.Duration)
		}
		if f.Src == f.Dst {
			t.Fatalf("flow %d is a self-flow", i)
		}
		if f.Packets <= 0 {
			t.Fatalf("flow %d has empty payload", i)
		}
		if tr.Directory.Host(f.Src) == nil || tr.Directory.Host(f.Dst) == nil {
			t.Fatalf("flow %d references unknown hosts", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := smallTrace(t, 9), smallTrace(t, 9)
	if a.NumFlows() != b.NumFlows() {
		t.Fatal("flow counts differ")
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, a.Flows[i], b.Flows[i])
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := SmallConfig("bad", 1)
	cfg.Switches = 1
	if _, err := Generate(cfg); err == nil {
		t.Error("1 switch accepted")
	}
	cfg = SmallConfig("bad", 1)
	cfg.Scale = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("Scale 0 accepted")
	}
	cfg = SmallConfig("bad", 1)
	cfg.P = 120
	if _, err := Generate(cfg); err == nil {
		t.Error("P=120 accepted")
	}
	cfg = SmallConfig("bad", 1)
	cfg.CommunicatingPairs = 1
	if _, err := Generate(cfg); err == nil {
		t.Error("1 communicating pair accepted")
	}
}

func TestWindowAndReplay(t *testing.T) {
	tr := smallTrace(t, 2)
	h := tr.Duration / 24
	w := tr.Window(8*h, 10*h)
	for i := range w {
		if w[i].Start < 8*h || w[i].Start >= 10*h {
			t.Fatalf("window flow at %v outside [8h,10h)", w[i].Start)
		}
	}
	// Full-span window covers everything.
	if got := len(tr.Window(0, tr.Duration)); got != tr.NumFlows() {
		t.Errorf("full window = %d, want %d", got, tr.NumFlows())
	}
}

func TestDiurnalShape(t *testing.T) {
	tr := smallTrace(t, 3)
	h := tr.Duration / 24
	night := len(tr.Window(2*h, 4*h))
	evening := len(tr.Window(17*h, 19*h))
	if evening <= night {
		t.Errorf("diurnal profile missing: night=%d evening=%d", night, evening)
	}
}

func TestTopPairsShare(t *testing.T) {
	tr := smallTrace(t, 4)
	st := ComputeStats(tr)
	// p=90/q≈10 recipe: the pool-relative decile (10% of 500 pairs)
	// should carry ≈90% of flows.
	if share := TopPairsShare(tr, 50); share < 0.80 || share > 0.99 {
		t.Errorf("TopPairsShare(50) = %.3f, want ≈0.90", share)
	}
	if st.DistinctPairs == 0 || st.Flows != tr.NumFlows() {
		t.Errorf("stats = %+v", st)
	}
	if st.PossiblePairs <= int64(st.DistinctPairs) {
		t.Errorf("PossiblePairs = %d ≤ DistinctPairs = %d", st.PossiblePairs, st.DistinctPairs)
	}
	if st.TopDecileShare <= 0 || st.TopDecileShare > 1 {
		t.Errorf("TopDecileShare = %v outside (0,1]", st.TopDecileShare)
	}
	// Asking for more pairs than exist returns the full share.
	if share := TopPairsShare(tr, 1<<30); share != 1 {
		t.Errorf("TopPairsShare(all) = %v, want 1", share)
	}
}

func TestAverageCentralityHighForLocalTrace(t *testing.T) {
	tr := smallTrace(t, 5)
	c, err := AverageCentrality(tr, 5, 1)
	if err != nil {
		t.Fatalf("AverageCentrality: %v", err)
	}
	if c < 0.60 || c > 1.0 {
		t.Errorf("centrality = %.3f, want high (local trace)", c)
	}
}

// TestCentralityStable pins the determinism fix lazyvet's maporder
// analyzer forced: centrality accumulates floats and inserts graph
// edges in sorted pair order, never map-iteration order, so repeated
// runs over the same trace are bit-identical. (Before the fix, Go's
// per-range map order randomization made the low bits wander.)
func TestCentralityStable(t *testing.T) {
	tr := smallTrace(t, 9)
	first, err := AverageCentrality(tr, 5, 1)
	if err != nil {
		t.Fatalf("AverageCentrality: %v", err)
	}
	for i := 0; i < 5; i++ {
		c, err := AverageCentrality(tr, 5, 1)
		if err != nil {
			t.Fatalf("AverageCentrality run %d: %v", i, err)
		}
		if c != first {
			t.Fatalf("run %d: centrality = %v, want bit-identical %v", i, c, first)
		}
	}
}

func TestAverageCentralityValidation(t *testing.T) {
	tr := smallTrace(t, 6)
	if _, err := AverageCentrality(tr, 1, 1); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestSwitchIntensity(t *testing.T) {
	tr := smallTrace(t, 7)
	m := SwitchIntensity(tr, 0, tr.Duration)
	if m.NumSwitches() != 24 {
		t.Errorf("NumSwitches = %d, want 24 (all registered)", m.NumSwitches())
	}
	if m.Total() <= 0 {
		t.Error("no intensity recorded")
	}
	// Total rate ≈ inter-switch flows / seconds.
	interSwitch := 0
	for i := range tr.Flows {
		f := &tr.Flows[i]
		if tr.Directory.Host(f.Src).Switch != tr.Directory.Host(f.Dst).Switch {
			interSwitch++
		}
	}
	want := float64(interSwitch) / tr.Duration.Seconds()
	if diff := m.Total() - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Total = %v, want %v", m.Total(), want)
	}
	// Empty window yields empty matrix.
	if m := SwitchIntensity(tr, time.Hour, time.Hour); m.Total() != 0 {
		t.Error("empty window has intensity")
	}
}

func TestExpand(t *testing.T) {
	base := smallTrace(t, 8)
	s, err := ExpandStream(base.Stream(0), 0.30, 8, 24, 99)
	if err != nil {
		t.Fatalf("ExpandStream: %v", err)
	}
	exp := Materialize(s)
	wantExtra := int(float64(base.NumFlows()) * 0.30)
	if got := exp.NumFlows() - base.NumFlows(); got != wantExtra {
		t.Errorf("extra flows = %d, want %d", got, wantExtra)
	}
	// Extra flows are all in hours [8,24) and between previously silent
	// pairs.
	baseKeys := make(map[model.FlowKey]struct{})
	for i := range base.Flows {
		baseKeys[model.FlowKey{Src: base.Flows[i].Src, Dst: base.Flows[i].Dst}.Canonical()] = struct{}{}
	}
	h := base.Duration / 24
	extraSeen := 0
	for i := range exp.Flows {
		f := &exp.Flows[i]
		key := model.FlowKey{Src: f.Src, Dst: f.Dst}.Canonical()
		if _, old := baseKeys[key]; old {
			continue
		}
		extraSeen++
		if f.Start < 8*h {
			t.Fatalf("extra flow at %v, want ≥ 8h", f.Start)
		}
	}
	if extraSeen != wantExtra {
		t.Errorf("extra flows between new pairs = %d, want %d", extraSeen, wantExtra)
	}
	// Expanded trace is sorted too.
	for i := 1; i < len(exp.Flows); i++ {
		if exp.Flows[i].Start < exp.Flows[i-1].Start {
			t.Fatal("expanded flows not sorted")
		}
	}
	if _, err := ExpandStream(base.Stream(0), -1, 8, 24, 1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := ExpandStream(base.Stream(0), 0.3, 20, 8, 1); err == nil {
		t.Error("inverted hour window accepted")
	}
}

func TestExpandLowersLocality(t *testing.T) {
	base := smallTrace(t, 10)
	s, err := ExpandStream(base.Stream(0), 0.5, 0, 24, 11)
	if err != nil {
		t.Fatal(err)
	}
	exp := Materialize(s)
	cBase, err := AverageCentrality(base, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cExp, err := AverageCentrality(exp, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cExp >= cBase {
		t.Errorf("expanded centrality %.3f ≥ base %.3f, want lower", cExp, cBase)
	}
}
