package eval

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"lazyctrl/internal/chaos"
	"lazyctrl/internal/controller"
	"lazyctrl/internal/replay"
	"lazyctrl/internal/trace"
)

// goldenDigest folds everything deterministic one run exposes — every
// scalar and series of the EmulationResult, the metrics registry's
// JSONL snapshot, the span dump, and the chaos fixpoint — into one FNV
// digest. Floats print in Go's shortest round-trip form, so the digest
// moves on any last-bit change. The literal [] stands where a
// since-removed, by then always-nil workload error series printed, so
// the recorded pre-images, and with them the digests, stay unchanged.
func goldenDigest(t *testing.T, r *EmulationResult) string {
	t.Helper()
	h := fnv.New64a()
	fmt.Fprintf(h, "%v %v %v %v\n", r.Mode, r.Dynamic, r.Engine, r.SampleProb)
	fmt.Fprintf(h, "%v\n[]\n%v\n%v\n", r.WorkloadKrps, r.AvgLatencyMs, r.UpdatesPerHour)
	fmt.Fprintf(h, "%d %d %d %d\n", r.ColdCacheLatency, r.FlowsInjected, r.FlowsDelivered, r.PopulationFlows)
	fmt.Fprintf(h, "%d %d %d\n", r.BatchDelayObserved, r.BatchDelayModeled, r.SimEvents)
	fmt.Fprintf(h, "%d %d %d %+v\n", r.ControlMsgs, r.ControlBytes, r.IdleRefreshes, r.Drops)
	fmt.Fprintf(h, "%d %d\n", r.DegradedFloods, r.DegradedWindow)
	fmt.Fprintf(h, "%d %v %q %q\n%s\n", r.RecoveryRounds, r.Converged, r.Divergences, r.StaleAdoptions, r.Fixpoint)
	fmt.Fprintf(h, "%d %d %+v %d %d %d\n", r.Takeovers, r.StepDowns, r.TakeoverTimelines,
		r.StaleGenRejected, r.DupEscalationsSuppressed, r.EscalationsReflushed)
	fmt.Fprintf(h, "%+v %d\n", r.ControllerStats, r.FinalGroups)
	if err := r.Metrics.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	if err := r.Spans.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenDigests pins one run per harness mode combination that
// benchmark/baseline.json does not cover, byte for byte, across
// commits. The digests were recorded at the commit before the harness
// was rebuilt on internal/rig (PR 13) and must only ever change with a
// deliberate, explained behaviour change: a refactor of the rig, the
// window loop, the folds, or the telemetry surface that moves one has
// changed a number somewhere. Re-record by running with -v and copying
// the logged digests.
func TestGoldenDigests(t *testing.T) {
	const seed = 5
	// 15-minute windows and a horizon that ends mid-window: a dozen
	// links of the window chain, window-end folds inside the horizon,
	// and a tail flush.
	small := func(t *testing.T) trace.Stream { return smallTrace(t, seed).Stream(96) }
	// The generator-backed stream of the same config, expanded with the
	// Fig. 7 silent-pair background from hour 1 so the horizon folds and
	// probes background windows.
	expanded := func(t *testing.T) trace.Stream {
		cfg := trace.SmallConfig("small", seed)
		cfg.WindowsPerHour = 4
		base, err := trace.NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src, err := trace.ExpandStream(base, 0.30, 1, 24, seed^0xe)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	base := func(src trace.Stream) EmulationConfig {
		return EmulationConfig{
			Source:         src,
			Mode:           controller.ModeLazy,
			GroupSizeLimit: 6,
			Horizon:        3*time.Hour + 7*time.Minute,
			BucketWidth:    time.Hour,
			Seed:           seed,
			MeterWire:      true,
			TraceSample:    0.25,
		}
	}
	for _, tc := range []struct {
		name string
		want string
		cfg  func(t *testing.T) EmulationConfig
	}{
		{"des-lazy-dynamic", "a7b49a624aec2cf9", func(t *testing.T) EmulationConfig {
			c := base(small(t))
			c.Dynamic = true
			return c
		}},
		{"des-openflow-exact-dst", "ed7c57e3fc3f84d0", func(t *testing.T) EmulationConfig {
			c := base(small(t))
			c.Mode = controller.ModeLearning
			return c
		}},
		{"fluid-per-flow", "53e526c324749484", func(t *testing.T) EmulationConfig {
			c := base(small(t))
			c.Dynamic = true
			c.Engine, c.SampleProb, c.PerFlowBaseline = replay.EngineFluid, 0.2, true
			return c
		}},
		{"fluid-aggregate-fold-expanded", "d99f6d2aa2a70f92", func(t *testing.T) EmulationConfig {
			c := base(expanded(t))
			c.Dynamic = true
			c.Engine, c.SampleProb, c.PerFlowBaseline = replay.EngineFluid, 0.2, true
			c.AggregatePopulation, c.ControlFold = true, true
			return c
		}},
		{"standby-chaos-cascade", "f6928aebefe5d29c", func(t *testing.T) EmulationConfig {
			c := base(small(t))
			c.Horizon, c.BucketWidth = time.Hour, 30*time.Minute
			c.Standby = true
			c.Chaos = chaos.Cascade(1, 15*time.Minute).Merge(FailoverPlans(30 * time.Minute)[0])
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunEmulation(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			got := goldenDigest(t, res)
			t.Logf("digest %s (flows %d/%d of %d, events %d, spans %d, regroupings %d, takeovers %d, converged %v in %d)",
				got, res.FlowsDelivered, res.FlowsInjected, res.PopulationFlows, res.SimEvents, res.Spans.Len(),
				res.ControllerStats.Regroupings, res.Takeovers, res.Converged, res.RecoveryRounds)
			if got != tc.want {
				t.Errorf("digest %s, recorded %s", got, tc.want)
			}
		})
	}
}

// TestDriverDefaultIsPaperConfiguration pins what the drivers run: a
// RunFig789 that names only the fluid engine is, series for series, the
// run with per-flow rules, the aggregate population fold, and the
// control fold all switched on by hand; and under any engine the
// OpenFlow baseline installs nothing (per-flow rules).
func TestDriverDefaultIsPaperConfiguration(t *testing.T) {
	small := trace.SmallConfig("small", 5)
	cfg := Fig789Config{Scale: 1, Seed: 5, Horizon: 6 * time.Hour, Engine: replay.EngineFluid, Trace: &small}
	sweep, err := RunFig789(cfg)
	if err != nil {
		t.Fatal(err)
	}
	real, _, warm, err := fig789Inputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunEmulation(EmulationConfig{
		Source: real, Mode: controller.ModeLazy, Horizon: cfg.Horizon, Seed: cfg.Seed, WarmupIntensity: warm,
		Engine: replay.EngineFluid, PerFlowBaseline: true, AggregatePopulation: true, ControlFold: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := goldenDigest(t, sweep.Series[SeriesRealStatic]), goldenDigest(t, direct); got != want {
		t.Errorf("RunFig789{Engine: fluid} real-static digest %s, the hand-built paper configuration gives %s", got, want)
	}

	cfg.Engine = replay.EngineDES
	sweep, err = RunFig789(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := sweep.Series[SeriesOpenFlow].ControllerStats; st.PacketIns == 0 || st.FlowModsSent != 0 {
		t.Errorf("DES OpenFlow baseline: %d PacketIns, %d FlowMods; per-flow rules escalate every flow and install nothing",
			st.PacketIns, st.FlowModsSent)
	}
}
