package eval

import (
	"fmt"
	"os"
	"testing"
	"time"

	"lazyctrl/internal/replay"
	"lazyctrl/internal/trace"
)

// fullScaleBudget reads the LAZYCTRL_FULLSCALE gate and budget.
func fullScaleBudget(t *testing.T) time.Duration {
	t.Helper()
	if os.Getenv("LAZYCTRL_FULLSCALE") == "" {
		t.Skip("set LAZYCTRL_FULLSCALE=1 to run the Scale=1 Fig. 7 sweeps")
	}
	budget := 45 * time.Minute
	if s := os.Getenv("LAZYCTRL_FULLSCALE_BUDGET"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("LAZYCTRL_FULLSCALE_BUDGET: %v", err)
		}
		budget = d
	}
	return budget
}

// synSweep runs one five-series Fig. 7 sweep on a synthetic trace
// through the fluid engine with both analytic folds on. The per-window
// fold cost is scale-invariant (the Syn topology and pair pools never
// shrink with Scale; Scale only divides the flow budget), so the window
// cadence is pinned: auto-sizing at Scale=1 would cut ~1,730 windows
// per hour for no fidelity gain. WarmupScale=100 likewise — the warmup
// intensity only seeds the initial grouping, and ~27M first-hour flows
// rank the pairs as well as 2.7B.
func synSweep(cfgT trace.GeneratorConfig) (*Fig789Result, error) {
	cfgT.WindowsPerHour = 12
	return RunFig789(Fig789Config{
		Scale:       1,
		Seed:        1,
		Engine:      replay.EngineFluid,
		SampleProb:  0.0003,
		Trace:       &cfgT,
		WarmupScale: 100,
	})
}

// checkSweepSeries pins the invariants every full-scale series must
// satisfy: the exact closed-form population (base for the three real
// series, +30% for the expanded pair), and a live latency probe.
func checkSweepSeries(t *testing.T, label string, res *Fig789Result, basePop int64) {
	t.Helper()
	expandedPop := basePop + 3*basePop/10
	for _, name := range []string{
		SeriesOpenFlow, SeriesRealStatic, SeriesRealDynamic,
		SeriesExpandedStatic, SeriesExpandedDynamic,
	} {
		r := res.Series[name]
		if r == nil {
			t.Fatalf("%s: missing series %q", label, name)
		}
		t.Logf("%s %-28s population=%d probe=%d/%d events=%d mean workload=%.2f Krps",
			label, name, r.PopulationFlows, r.FlowsDelivered, r.FlowsInjected,
			r.SimEvents, Mean(r.WorkloadKrps))
		want := basePop
		if name == SeriesExpandedStatic || name == SeriesExpandedDynamic {
			want = expandedPop
		}
		if int64(r.PopulationFlows) != want {
			t.Errorf("%s %s: population %d, want the exact closed-form %d",
				label, name, r.PopulationFlows, want)
		}
		if r.FlowsInjected == 0 || r.FlowsDelivered == 0 {
			t.Errorf("%s %s: empty probe population", label, name)
		}
	}
}

// TestFig7FullScaleSweep is the paper-scale acceptance run: the Fig. 7
// five-series sweep on each synthetic topology at Scale=1 — Syn-A/B/C,
// 2,713 switches, 2.72/3.81/5.07B flows per run, ~46B flow records
// across the three sweeps — end to end through the fluid engine under
// one wall-clock budget. The populations are folded analytically
// (aggregate pair cells + closed-form background, control-plane fold);
// a hash-sampled probe population rides the DES for latency.
//
// All five series run per-flow (5-tuple) reactive baseline rules — the
// paper's rule granularity — so the reduction measures the fraction of
// escalations the group-local controllers absorb, not rule-cache
// density (the retired artifact, docs/emulation.md). Reduction then
// tracks each trace's centrality: Syn-A (0.85, the topology the
// paper's band was read from) lands inside the paper's 61–82% band;
// Syn-B (0.72) and Syn-C (0.61) scatter progressively more traffic
// across groups and land below it, in strict centrality order.
//
// The run is gated behind LAZYCTRL_FULLSCALE=1 (a non-blocking CI job;
// pass -timeout 90m). LAZYCTRL_FULLSCALE_BUDGET overrides the default
// budget (a Go duration, e.g. "20m") for slower or faster boxes.
// Reference-box timings (1 core): ~3m/3m30s/5m per sweep, ~12m total.
func TestFig7FullScaleSweep(t *testing.T) {
	budget := fullScaleBudget(t)
	sweeps := []struct {
		label string
		cfg   trace.GeneratorConfig
		pop   int64 // exact closed-form base population at Scale=1
		// Reduction band for the real-trace static/dynamic series
		// (fractions of the OpenFlow baseline workload).
		minReal, maxReal float64
		// Floor for the expanded static/dynamic series (the +30%
		// one-off extras dilute group locality, so expanded < real;
		// the ceiling is the realMax band edge).
		minExpanded float64
	}{
		// Measured on the reference box (seed 1): 62.2%/62.1% real,
		// 41.3%/40.6% expanded — inside the paper's 61–82% band.
		{"Syn-A", trace.SynAConfig(1, 1), 2_720_000_000, 0.61, 0.82, 0.30},
		// Measured: 41.6%/41.1% real, 21.4%/19.9% expanded.
		{"Syn-B", trace.SynBConfig(1, 1), 3_806_000_000, 0.35, 0.61, 0.12},
		// Measured: 29.9%/29.7% real, 9.6%/8.7% expanded.
		{"Syn-C", trace.SynCConfig(1, 1), 5_071_000_000, 0.22, 0.35, 0.06},
	}
	start := time.Now()
	prevStatic := 1.0
	for _, sw := range sweeps {
		res, err := synSweep(sw.cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkSweepSeries(t, sw.label, res, sw.pop)
		t.Logf("%s reductions: real %.1f%%/%.1f%%, expanded %.1f%%/%.1f%% (elapsed %v)",
			sw.label,
			100*res.ReductionRealStatic, 100*res.ReductionRealDynamic,
			100*res.ReductionExpandedStatic, 100*res.ReductionExpandedDynamic,
			time.Since(start))
		for series, red := range map[string]float64{
			"real static":  res.ReductionRealStatic,
			"real dynamic": res.ReductionRealDynamic,
		} {
			if red < sw.minReal || red > sw.maxReal {
				t.Errorf("%s %s reduction %.3f outside [%.2f, %.2f]",
					sw.label, series, red, sw.minReal, sw.maxReal)
			}
		}
		for series, red := range map[string]float64{
			"expanded static":  res.ReductionExpandedStatic,
			"expanded dynamic": res.ReductionExpandedDynamic,
		} {
			if red < sw.minExpanded || red > sw.maxReal {
				t.Errorf("%s %s reduction %.3f outside [%.2f, %.2f]",
					sw.label, series, red, sw.minExpanded, sw.maxReal)
			}
			if red >= res.ReductionRealStatic {
				t.Errorf("%s %s reduction %.3f ≥ real static %.3f — extras must dilute locality",
					sw.label, series, red, res.ReductionRealStatic)
			}
		}
		// Reduction falls strictly with centrality: A > B > C.
		if res.ReductionRealStatic >= prevStatic {
			t.Errorf("%s real static reduction %.3f does not fall below the previous trace's %.3f",
				sw.label, res.ReductionRealStatic, prevStatic)
		}
		prevStatic = res.ReductionRealStatic
	}
	elapsed := time.Since(start)
	t.Logf("three sweeps completed in %v (budget %v)", elapsed, budget)
	if elapsed > budget {
		t.Errorf("sweeps took %v, budget %v", elapsed, budget)
	}
}

// TestFig7SynBSmoke is the reduced-scale pre-flight for the full-scale
// job: the same five-series Syn-B sweep, same folds and rule mode, at
// Scale=100 (38M flows per run) — ~2 minutes on the reference box, and
// reductions within a point of the Scale=1 numbers (the folds are
// scale-invariant; only the probe thins). It pins
// the same structural invariants (exact population split, live probe,
// expanded < real) with looser reduction floors, so a fold regression
// surfaces before the Scale=1 sweeps burn their budget.
func TestFig7SynBSmoke(t *testing.T) {
	fullScaleBudget(t)
	const scale = 100
	cfgT := trace.SynBConfig(scale, 1)
	start := time.Now()
	res, err := synSweep(cfgT)
	if err != nil {
		t.Fatal(err)
	}
	checkSweepSeries(t, fmt.Sprintf("Syn-B/%d", scale), res, 3_806_000_000/scale)
	t.Logf("Syn-B scale=%d reductions: real %.1f%%/%.1f%%, expanded %.1f%%/%.1f%% (elapsed %v)",
		scale,
		100*res.ReductionRealStatic, 100*res.ReductionRealDynamic,
		100*res.ReductionExpandedStatic, 100*res.ReductionExpandedDynamic,
		time.Since(start))
	if res.ReductionRealStatic < 0.30 || res.ReductionRealDynamic < 0.30 {
		t.Errorf("real reductions %.3f/%.3f, want ≥ 0.30",
			res.ReductionRealStatic, res.ReductionRealDynamic)
	}
	if res.ReductionExpandedStatic >= res.ReductionRealStatic {
		t.Errorf("expanded static reduction %.3f ≥ real static %.3f",
			res.ReductionExpandedStatic, res.ReductionRealStatic)
	}
}
