package eval

import (
	"testing"
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/trace"
)

func smallTrace(t testing.TB, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.SmallConfig("small", seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunEmulationLazySmoke(t *testing.T) {
	tr := smallTrace(t, 1)
	res, err := RunEmulation(EmulationConfig{
		Source:         tr.Stream(0),
		Mode:           controller.ModeLazy,
		GroupSizeLimit: 6,
		Horizon:        2 * time.Hour,
		BucketWidth:    time.Hour,
		Seed:           1,
	})
	if err != nil {
		t.Fatalf("RunEmulation: %v", err)
	}
	if res.FlowsInjected == 0 {
		t.Fatal("no flows injected")
	}
	// The overwhelming majority of first packets must be delivered.
	ratio := float64(res.FlowsDelivered) / float64(res.FlowsInjected)
	if ratio < 0.95 {
		t.Errorf("delivery ratio = %.3f (injected=%d delivered=%d)", ratio, res.FlowsInjected, res.FlowsDelivered)
	}
	if res.FinalGroups == 0 {
		t.Error("no groups formed")
	}
	if res.ColdCacheLatency <= 0 {
		t.Error("no cold-cache latency measured")
	}
	if len(res.WorkloadKrps) != 2 {
		t.Errorf("workload buckets = %d, want 2", len(res.WorkloadKrps))
	}
}

func TestRunEmulationLearningSmoke(t *testing.T) {
	tr := smallTrace(t, 2)
	res, err := RunEmulation(EmulationConfig{
		Source:      tr.Stream(0),
		Mode:        controller.ModeLearning,
		Horizon:     2 * time.Hour,
		BucketWidth: time.Hour,
		Seed:        2,
	})
	if err != nil {
		t.Fatalf("RunEmulation: %v", err)
	}
	ratio := float64(res.FlowsDelivered) / float64(res.FlowsInjected)
	if ratio < 0.95 {
		t.Errorf("delivery ratio = %.3f", ratio)
	}
	if res.ControllerStats.PacketIns == 0 {
		t.Error("baseline saw no PacketIns")
	}
	if res.ControllerStats.Floods == 0 {
		t.Error("baseline never flooded")
	}
}

func TestLazyReducesWorkload(t *testing.T) {
	cfg := trace.SmallConfig("busy", 3)
	cfg.PaperFlows = 400_000 // dense enough that flow setups dominate periodic state reports
	cfg.Colocation = 0.97    // tenants fit inside single groups at this tiny scale
	cfg.ScatterFlowFraction = 0.06
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 4 * time.Hour
	lazy, err := RunEmulation(EmulationConfig{
		Source: tr.Stream(0), Mode: controller.ModeLazy, GroupSizeLimit: 8,
		Horizon: horizon, BucketWidth: time.Hour, Seed: 3,
		ReportInterval: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunEmulation(EmulationConfig{
		Source: tr.Stream(0), Mode: controller.ModeLearning,
		Horizon: horizon, BucketWidth: time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	red := Reduction(base.WorkloadKrps, lazy.WorkloadKrps)
	t.Logf("workload reduction = %.1f%% (base PacketIns=%d lazy PacketIns=%d lazy ARPRelays=%d lazy StateReports=%d)",
		100*red, base.ControllerStats.PacketIns, lazy.ControllerStats.PacketIns,
		lazy.ControllerStats.ARPRelays, lazy.ControllerStats.StateReports)
	if red < 0.40 {
		t.Errorf("workload reduction = %.2f, want ≥ 0.40", red)
	}
	// Latency: lazy average at or below baseline.
	if Mean(lazy.AvgLatencyMs) > Mean(base.AvgLatencyMs)*1.05 {
		t.Errorf("lazy latency %.3fms > baseline %.3fms",
			Mean(lazy.AvgLatencyMs), Mean(base.AvgLatencyMs))
	}
}

func TestTableIISmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full-topology generators")
	}
	rows, err := TableII(20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.MeasuredFlows == 0 {
			t.Errorf("%s: no flows", r.Name)
		}
		if r.AvgCentrality < r.PaperC-0.12 || r.AvgCentrality > r.PaperC+0.12 {
			t.Errorf("%s: centrality %.3f vs paper %.2f", r.Name, r.AvgCentrality, r.PaperC)
		}
	}
	if !(rows[1].AvgCentrality > rows[2].AvgCentrality && rows[2].AvgCentrality > rows[3].AvgCentrality) {
		t.Errorf("centrality ordering violated: %+v", rows)
	}
}

func TestFig6aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-topology generators")
	}
	points, err := Fig6a(30_000, 7, []int{10, 40, 80})
	if err != nil {
		t.Fatal(err)
	}
	// For each trace, Winter grows with the group count.
	byTrace := map[string][]Fig6aPoint{}
	for _, p := range points {
		byTrace[p.Trace] = append(byTrace[p.Trace], p)
	}
	for name, ps := range byTrace {
		if len(ps) < 3 {
			t.Fatalf("%s: %d points", name, len(ps))
		}
		if !(ps[0].WinterPct < ps[len(ps)-1].WinterPct) {
			t.Errorf("%s: Winter not increasing with groups: %+v", name, ps)
		}
	}
	// Higher-centrality traces have lower Winter at the same k.
	if len(byTrace["Syn-A"]) > 0 && len(byTrace["Syn-C"]) > 0 {
		if byTrace["Syn-A"][0].WinterPct >= byTrace["Syn-C"][0].WinterPct {
			t.Errorf("Syn-A Winter %.1f%% ≥ Syn-C %.1f%% at k=10",
				byTrace["Syn-A"][0].WinterPct, byTrace["Syn-C"][0].WinterPct)
		}
	}
}

func TestFig6bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-topology generators")
	}
	points, err := Fig6b(200_000, 7, []int{50, 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Elapsed <= 0 {
			t.Errorf("%s limit=%d: zero elapsed", p.Trace, p.SizeLimit)
		}
		if p.Elapsed > 10*time.Second {
			t.Errorf("%s limit=%d: %v, want < 10s", p.Trace, p.SizeLimit, p.Elapsed)
		}
	}
}

func TestColdCacheOrdering(t *testing.T) {
	res, err := ColdCache(9)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold cache: intra=%v inter=%v openflow=%v (paper: 0.83ms / 5.38ms / 15.06ms)",
		res.LazyIntra, res.LazyInter, res.OpenFlow)
	if !(res.LazyIntra < res.LazyInter && res.LazyInter < res.OpenFlow) {
		t.Errorf("ordering violated: intra=%v inter=%v openflow=%v",
			res.LazyIntra, res.LazyInter, res.OpenFlow)
	}
	// Intra-group must be an order of magnitude below OpenFlow (§V-E).
	if res.OpenFlow < 10*res.LazyIntra {
		t.Errorf("OpenFlow/intra ratio = %.1f, want ≥ 10",
			float64(res.OpenFlow)/float64(res.LazyIntra))
	}
	if res.LazyIntra < 300*time.Microsecond || res.LazyIntra > 3*time.Millisecond {
		t.Errorf("intra latency %v outside the sub-ms band", res.LazyIntra)
	}
}

func TestStorageTable(t *testing.T) {
	rows := Storage([]int{10, 46, 100}, 24)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's example: 46 switches → 45 × 2048 B = 92,160 B.
	if rows[1].GroupSize != 46 || rows[1].GFIBBytes != 92160 {
		t.Errorf("46-switch row = %+v, want 92160 bytes", rows[1])
	}
	if rows[1].FPP >= 0.001 {
		t.Errorf("FPP = %v, want < 0.1%%", rows[1].FPP)
	}
	// Linear growth in group size.
	if rows[2].GFIBBytes != 99*2048 {
		t.Errorf("100-switch row = %d bytes, want %d", rows[2].GFIBBytes, 99*2048)
	}
	if got := Storage([]int{1}, 0); len(got) != 0 {
		t.Error("degenerate group size accepted")
	}
}

func TestMeanAndReduction(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Reduction([]float64{10, 10}, []float64{2, 2}); got != 0.8 {
		t.Errorf("Reduction = %v, want 0.8", got)
	}
	if Reduction(nil, []float64{1}) != 0 {
		t.Error("Reduction with empty baseline != 0")
	}
}
