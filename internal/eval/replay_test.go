package eval

import (
	"math"
	"testing"
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/replay"
	"lazyctrl/internal/trace"
)

// busyConfig is the differential-test workload: dense enough that
// traffic-driven requests dominate the periodic classes, with a pair
// pool large enough that the fluid engine's latency probe keeps a
// meaningful sample.
func busyConfig(seed uint64) trace.GeneratorConfig {
	cfg := trace.SmallConfig("busy", seed)
	cfg.PaperFlows = 300_000
	cfg.CommunicatingPairs = 4000
	// The default small topology cannot supply 3200 distinct
	// intra-tenant pairs; grow the tenants so the pool fits with room.
	cfg.MinVMs, cfg.MaxVMs = 24, 40
	cfg.Colocation = 0.97
	cfg.ScatterFlowFraction = 0.06
	return cfg
}

func runEngine(t *testing.T, cfg trace.GeneratorConfig, mode controller.Mode,
	engine replay.Engine, p float64, seed uint64) *EmulationResult {
	t.Helper()
	s, err := trace.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEmulation(EmulationConfig{
		Source:         s,
		Mode:           mode,
		GroupSizeLimit: 8,
		Horizon:        4 * time.Hour,
		BucketWidth:    time.Hour,
		Seed:           seed,
		ReportInterval: 5 * time.Minute,
		Engine:         engine,
		SampleProb:     p,
	})
	if err != nil {
		t.Fatalf("%v/%v: %v", mode, engine, err)
	}
	return res
}

// trafficMean is the mean traffic-driven workload (the periodic
// classes are identical across engines by construction, so the
// differential compares what the engines actually estimate).
func trafficMean(res *EmulationResult) float64 { return Mean(res.WorkloadKrps) }

// TestFluidMatchesDES is the fluid-vs-DES differential: the aggregated
// workload must land within the documented tolerance band of the full
// DES in both modes, the Fig. 7 reduction the two modes give must agree
// within 3 points, and the probe population's latency must track the
// DES latency figures.
func TestFluidMatchesDES(t *testing.T) {
	if testing.Short() {
		t.Skip("several full emulations")
	}
	type run struct {
		engine replay.Engine
		mode   controller.Mode
		seed   uint64
	}
	workload := map[run][]float64{} // each run's Fig. 7 series
	seeds := []uint64{1, 2}
	for _, mode := range []controller.Mode{controller.ModeLazy, controller.ModeLearning} {
		for _, seed := range seeds {
			cfg := busyConfig(seed)
			des := runEngine(t, cfg, mode, replay.EngineDES, 0, seed)
			fl := runEngine(t, cfg, mode, replay.EngineFluid, 0.05, seed)
			workload[run{replay.EngineDES, mode, seed}] = des.WorkloadKrps
			workload[run{replay.EngineFluid, mode, seed}] = fl.WorkloadKrps

			if fl.PopulationFlows != des.FlowsInjected {
				t.Errorf("mode=%v seed=%d: fluid population %d != DES injected %d",
					mode, seed, fl.PopulationFlows, des.FlowsInjected)
			}
			dm, fm := trafficMean(des), trafficMean(fl)
			rel := math.Abs(dm-fm) / dm
			t.Logf("mode=%v seed=%d: workload DES %.4g vs fluid %.4g Krps (%.1f%% off); "+
				"cold DES %v vs fluid %v",
				mode, seed, dm, fm, 100*rel, des.ColdCacheLatency, fl.ColdCacheLatency)
			// The pinned fluid tolerance band (docs/emulation.md).
			if rel > 0.15 {
				t.Errorf("mode=%v seed=%d: fluid workload %.4g vs DES %.4g Krps (%.1f%% > 15%%)",
					mode, seed, fm, dm, 100*rel)
			}
			// Steady-state latency (dominated by fast-path packets) must
			// track in both modes; the learning baseline gets a wider
			// band because the probe's flood-vs-rule-hit mix is biased
			// by the host-coupled learning dynamics (see below).
			da, fa := Mean(des.AvgLatencyMs), Mean(fl.AvgLatencyMs)
			lo, hi := 0.8, 1.25
			if mode != controller.ModeLazy {
				lo, hi = 0.7, 1.6
			}
			if r := fa / da; r < lo || r > hi {
				t.Errorf("mode=%v seed=%d: fluid avg latency %.4gms vs DES %.4gms",
					mode, seed, fa, da)
			}
			// Cold-cache latency comes from the probe population. The
			// pins apply to lazy mode only: the learning baseline's
			// MAC-learning couples pairs through hosts (a destination is
			// known only once it has sent), which pair sampling breaks —
			// the probe floods where the full DES hits rules, biasing
			// its cold CDF high. docs/emulation.md documents the bias.
			if mode != controller.ModeLazy {
				continue
			}
			lr := float64(fl.ColdCacheLatency) / float64(des.ColdCacheLatency)
			if lr < 0.6 || lr > 1.67 {
				t.Errorf("mode=%v seed=%d: fluid cold latency %v vs DES %v",
					mode, seed, fl.ColdCacheLatency, des.ColdCacheLatency)
			}
			for _, q := range []float64{0.5, 0.9} {
				dq := des.Recorder.ColdLatencyQuantile(q)
				fq := fl.Recorder.ColdLatencyQuantile(q)
				if dq == 0 || fq == 0 {
					t.Fatalf("mode=%v seed=%d: empty cold-latency histogram", mode, seed)
				}
				if r := float64(fq) / float64(dq); r < 0.6 || r > 1.67 {
					t.Errorf("mode=%v seed=%d: cold q%v = %v vs DES %v", mode, seed, q, fq, dq)
				}
			}
		}
	}
	// Fig. 7's headline: the workload reduction of lazy against the
	// learning baseline.
	for _, seed := range seeds {
		reduction := func(e replay.Engine) float64 {
			return Reduction(workload[run{e, controller.ModeLearning, seed}], workload[run{e, controller.ModeLazy, seed}])
		}
		dr, fr := reduction(replay.EngineDES), reduction(replay.EngineFluid)
		t.Logf("seed=%d: Fig. 7 reduction DES %.2f%% vs fluid %.2f%%", seed, 100*dr, 100*fr)
		if d := 100 * math.Abs(dr-fr); d > 3 {
			t.Errorf("seed=%d: fluid reduction %.2f%% vs DES %.2f%% (%.2f points > 3)", seed, 100*fr, 100*dr, d)
		}
	}
}

// TestBatchingDelayAccounted pins the §V-E micro-batching term: with
// the window on (every emulation batches), the measured mean batch
// residence must match the modeled expectation.
func TestBatchingDelayAccounted(t *testing.T) {
	if testing.Short() {
		t.Skip("a full emulation")
	}
	st, err := trace.NewStream(busyConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEmulation(EmulationConfig{
		Source: st, Mode: controller.ModeLazy, GroupSizeLimit: 8,
		Horizon: 4 * time.Hour, BucketWidth: time.Hour, Seed: 7,
		ReportInterval: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchDelayObserved == 0 || res.BatchDelayModeled == 0 {
		t.Fatalf("batched run reports no batch delay (observed %v, modeled %v)",
			res.BatchDelayObserved, res.BatchDelayModeled)
	}
	// Model vs measurement: the emulation lives in the deadline-
	// dominated regime, where both sit near the 1 ms window.
	mr := float64(res.BatchDelayObserved) / float64(res.BatchDelayModeled)
	t.Logf("batch delay: observed %v, modeled %v", res.BatchDelayObserved, res.BatchDelayModeled)
	if mr < 0.75 || mr > 1.33 {
		t.Errorf("modeled batch delay %v vs observed %v (ratio %.2f)",
			res.BatchDelayModeled, res.BatchDelayObserved, mr)
	}
}
