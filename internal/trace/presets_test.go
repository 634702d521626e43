package trace

import (
	"testing"
)

// TestTableIICalibration regenerates the Table II datasets at reduced
// scale and checks that the average 5-way centrality lands in the
// paper's bands: real ≈ 0.85, Syn-A ≈ 0.85, Syn-B ≈ 0.72, Syn-C ≈ 0.61,
// with strict ordering A > B > C.
func TestTableIICalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs full-topology generators")
	}
	type target struct {
		name string
		cfg  GeneratorConfig
		want float64
		tol  float64
	}
	targets := []target{
		{"real", RealLikeConfig(5000, 1), 0.85, 0.10},
		{"syn-a", SynAConfig(50_000, 1), 0.85, 0.10},
		{"syn-b", SynBConfig(70_000, 1), 0.72, 0.10},
		{"syn-c", SynCConfig(100_000, 1), 0.61, 0.10},
	}
	got := make(map[string]float64, len(targets))
	for _, tgt := range targets {
		tr, err := Generate(tgt.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tgt.name, err)
		}
		c, err := AverageCentrality(tr, 5, 7)
		if err != nil {
			t.Fatalf("%s centrality: %v", tgt.name, err)
		}
		got[tgt.name] = c
		t.Logf("%s: centrality=%.3f (paper %.2f)", tgt.name, c, tgt.want)
		if c < tgt.want-tgt.tol || c > tgt.want+tgt.tol {
			t.Errorf("%s centrality = %.3f, want %.2f ± %.2f", tgt.name, c, tgt.want, tgt.tol)
		}
	}
	if !(got["syn-a"] > got["syn-b"] && got["syn-b"] > got["syn-c"]) {
		t.Errorf("centrality ordering violated: A=%.3f B=%.3f C=%.3f",
			got["syn-a"], got["syn-b"], got["syn-c"])
	}
}

func TestRealLikePairStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("full real-like topology")
	}
	tr, err := Generate(RealLikeConfig(5000, 2))
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(tr)
	// §II-A: ~11.6k communicating pairs out of >20M, over 90% of flows
	// from about 10% of the pairs that exchanged traffic.
	if st.DistinctPairs > RealCommunicatingPairs {
		t.Errorf("DistinctPairs = %d, want ≤ %d", st.DistinctPairs, RealCommunicatingPairs)
	}
	if st.PossiblePairs < 18_000_000 {
		t.Errorf("PossiblePairs = %d, want tens of millions", st.PossiblePairs)
	}
	if share := TopPairsShare(tr, RealCommunicatingPairs/10); share < 0.80 {
		t.Errorf("TopPairsShare(10%% of pool) = %.3f, want ≈ 0.90", share)
	}
	if tr.Directory.NumHosts() < 6000 || tr.Directory.NumHosts() > 7000 {
		t.Errorf("hosts = %d, want ≈ 6509", tr.Directory.NumHosts())
	}
}
