package eval

import (
	"os"
	"testing"

	"lazyctrl/internal/replay"
	"lazyctrl/internal/trace"
)

// TestAggregatePopulationDifferential pins the analytic population fold
// against the per-flow fluid fold it replaces: the same five-series
// Fig. 7 sweep, run once with per-flow windows and once with aggregate
// (pair, window) cells. The populations must agree exactly (both forms
// apportion the same total), and every series' mean workload must agree
// within the aggregation tolerance — the two forms draw different
// realizations of the same distribution (per-flow multinomials vs their
// expectation plus a closed-form cache model), so the comparison is
// statistical, not bit-exact.
//
// The blocking suite runs the Syn-A recipe (p=90/q=10, flat hot
// weights, no drift, no scatter pinning — the generator paths the
// real-like config does not take) on the real trace's topology: 272
// switches, 108 tenants, 11.6k communicating pairs, with the same
// ~136k-flow budget as the full 2,713-switch Syn-A at Scale 20,000.
// What the differential compares is the two folds of one flow
// population, and neither fold's arithmetic depends on how many
// switches idle around it — the full topology only multiplies the
// control-plane background every one of the ten runs replays for 24 h
// (161 s of the suite's 206 s). The tolerances are the full-size ones,
// unchanged: the same flow budget over a 10× smaller pair pool puts 10×
// more flows on each pair, so the per-pair multinomial noise the
// tolerances absorb can only shrink. Measured at seed 1, the worst
// series (expanded, dynamic) diverges 7.0% in workload and 0.043 in
// reduction here against 6.9% and 0.059 on the full topology, inside
// the ±15% and ±0.08 pins with the same margin. The full topology runs
// as a third case under LAZYCTRL_FULLSCALE, in the fullscale CI lane.
func TestAggregatePopulationDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep differential")
	}
	real := trace.RealLikeConfig(2_000, 1)
	synA := trace.SynAConfig(20_000, 1)
	reducedSynA := synA
	reducedSynA.Switches, reducedSynA.Tenants = real.Switches, real.Tenants
	reducedSynA.CommunicatingPairs = real.CommunicatingPairs
	cases := []struct {
		name string
		cfg  trace.GeneratorConfig
	}{
		// Syn-A exercises the synthetic recipe (no drift); the real-like
		// config exercises drift-modulated hot weights.
		{"syn-a", reducedSynA},
		{"real", real},
	}
	if os.Getenv("LAZYCTRL_FULLSCALE") != "" {
		cases = append(cases, struct {
			name string
			cfg  trace.GeneratorConfig
		}{"syn-a-full-topology", synA})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(perFlowFold bool) *Fig789Result {
				t.Helper()
				res, err := runFig789(Fig789Config{
					Scale:      1,
					Seed:       1,
					Engine:     replay.EngineFluid,
					SampleProb: 0.02,
					Trace:      &tc.cfg,
				}, perFlowFold)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			pf := run(true)
			ag := run(false)
			for _, name := range []string{
				SeriesOpenFlow, SeriesRealStatic, SeriesRealDynamic,
				SeriesExpandedStatic, SeriesExpandedDynamic,
			} {
				p, a := pf.Series[name], ag.Series[name]
				if p.PopulationFlows != a.PopulationFlows {
					t.Errorf("%s: population %d (per-flow) vs %d (aggregate)",
						name, p.PopulationFlows, a.PopulationFlows)
				}
				mp, ma := Mean(p.WorkloadKrps), Mean(a.WorkloadKrps)
				t.Logf("%-28s workload %.3f vs %.3f Krps, population %d",
					name, mp, ma, a.PopulationFlows)
				if mp == 0 {
					continue
				}
				if rel := (ma - mp) / mp; rel < -0.15 || rel > 0.15 {
					t.Errorf("%s: aggregate workload diverges %.1f%% (%.3f vs %.3f Krps)",
						name, 100*rel, ma, mp)
				}
			}
			for _, pair := range [][2]float64{
				{pf.ReductionRealStatic, ag.ReductionRealStatic},
				{pf.ReductionRealDynamic, ag.ReductionRealDynamic},
				{pf.ReductionExpandedStatic, ag.ReductionExpandedStatic},
				{pf.ReductionExpandedDynamic, ag.ReductionExpandedDynamic},
			} {
				if d := pair[1] - pair[0]; d < -0.08 || d > 0.08 {
					t.Errorf("reduction diverges: per-flow %.3f vs aggregate %.3f", pair[0], pair[1])
				}
			}
		})
	}
}
