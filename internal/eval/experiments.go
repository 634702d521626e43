package eval

import (
	"fmt"
	"time"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/controller"
	"lazyctrl/internal/fib"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/replay"
	"lazyctrl/internal/trace"
)

// TableIIRow is one dataset row of Table II.
type TableIIRow struct {
	Name string
	// PaperFlows is the unscaled flow count the paper reports; Measured
	// is this run's generated count (PaperFlows / Scale).
	PaperFlows    int64
	MeasuredFlows int
	// AvgCentrality is the measured 5-way average centrality; PaperC is
	// the value Table II reports.
	AvgCentrality float64
	PaperC        float64
	P, Q          int
}

// TableII regenerates the trace-characteristics table at the given
// scale, streaming each dataset through the centrality accumulator
// instead of materializing its flows.
func TableII(scale int, seed uint64) ([]TableIIRow, error) {
	type spec struct {
		name   string
		cfg    trace.GeneratorConfig
		flows  int64
		paperC float64
	}
	specs := []spec{
		{"Real", trace.RealLikeConfig(scale, seed), trace.RealPaperFlows, 0.85},
		{"Syn-A", trace.SynAConfig(scale*10, seed), trace.SynAFlows, 0.85},
		{"Syn-B", trace.SynBConfig(scale*14, seed), trace.SynBFlows, 0.72},
		{"Syn-C", trace.SynCConfig(scale*19, seed), trace.SynCFlows, 0.61},
	}
	rows := make([]TableIIRow, 0, len(specs))
	for _, sp := range specs {
		s, err := trace.NewStream(sp.cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", sp.name, err)
		}
		c, err := trace.StreamCentrality(s, 5, seed)
		if err != nil {
			return nil, fmt.Errorf("eval: %s centrality: %w", sp.name, err)
		}
		info := s.Info()
		rows = append(rows, TableIIRow{
			Name:          sp.name,
			PaperFlows:    sp.flows,
			MeasuredFlows: info.TotalFlows,
			AvgCentrality: c,
			PaperC:        sp.paperC,
			P:             info.P,
			Q:             info.Q,
		})
	}
	return rows, nil
}

// Fig6aPoint is one (trace, #groups) → W_inter sample of Fig. 6(a).
type Fig6aPoint struct {
	Trace     string
	Groups    int
	WinterPct float64
}

// synConfigs names the three synthetic workloads shared by the Fig. 6
// sweeps.
func synConfigs(scale int, seed uint64) []struct {
	name string
	cfg  trace.GeneratorConfig
} {
	return []struct {
		name string
		cfg  trace.GeneratorConfig
	}{
		{"Syn-A", trace.SynAConfig(scale, seed)},
		{"Syn-B", trace.SynBConfig(scale*14/10, seed)},
		{"Syn-C", trace.SynCConfig(scale*19/10, seed)},
	}
}

// synIntensities streams the three synthetic traces concurrently and
// reduces each to its switch-intensity matrix — the flows are never
// materialized, only folded window by window. The returned matrices
// are read-only from that point on, so sweep points can share them
// across the worker pool.
func synIntensities(scale int, seed uint64) ([]string, []*grouping.Intensity, error) {
	cfgs := synConfigs(scale, seed)
	names := make([]string, len(cfgs))
	ms := make([]*grouping.Intensity, len(cfgs))
	err := parallelFor(len(cfgs), func(i int) error {
		s, err := trace.NewStream(cfgs[i].cfg)
		if err != nil {
			return err
		}
		names[i] = cfgs[i].name
		ms[i] = trace.StreamIntensity(s, 0, s.Info().Duration)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return names, ms, nil
}

// Fig6a sweeps the number of groups for each synthetic trace and
// reports the normalized inter-group traffic intensity, reproducing
// Fig. 6(a): W_inter grows roughly linearly with the group count and is
// lower for traces with higher centrality. Every (trace, k) point is an
// independent partitioning problem, so the sweep fans out across the
// worker pool; output order matches the sequential sweep.
func Fig6a(scale int, seed uint64, groupCounts []int) ([]Fig6aPoint, error) {
	names, ms, err := synIntensities(scale, seed)
	if err != nil {
		return nil, err
	}
	type job struct{ ti, k int }
	var jobs []job
	for ti := range ms {
		n := ms[ti].NumSwitches()
		for _, k := range groupCounts {
			if k < 1 || k > n {
				continue
			}
			jobs = append(jobs, job{ti, k})
		}
	}
	out := make([]Fig6aPoint, len(jobs))
	err = parallelFor(len(jobs), func(j int) error {
		ti, k := jobs[j].ti, jobs[j].k
		m := ms[ti]
		n := m.NumSwitches()
		limit := (n + k - 1) / k
		// Allow slack so the partitioner can express affinity while
		// still producing ≈k groups.
		limit += limit / 5
		sgi, err := grouping.New(grouping.Config{SizeLimit: limit, Seed: seed})
		if err != nil {
			return err
		}
		grp, err := sgi.IniGroup(m)
		if err != nil {
			return fmt.Errorf("eval: fig6a %s k=%d: %w", names[ti], k, err)
		}
		out[j] = Fig6aPoint{
			Trace:     names[ti],
			Groups:    grp.NumGroups(),
			WinterPct: 100 * grouping.Winter(grp, m),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig6bPoint is one (trace, size limit) → IniGroup wall time sample of
// Fig. 6(b).
type Fig6bPoint struct {
	Trace     string
	SizeLimit int
	Elapsed   time.Duration
	// IncElapsed is the IncUpdate time on the same instance (the paper
	// notes it is more than an order of magnitude faster).
	IncElapsed time.Duration
}

// Fig6b measures switch-grouping computation time against the group
// size limit. Trace generation fans out across the worker pool, but
// the timed points themselves run sequentially: Fig. 6(b) is a
// computation-time figure, and wall-clock measured under CPU
// contention from sibling points would not be comparable across runs
// or machines.
func Fig6b(scale int, seed uint64, sizeLimits []int) ([]Fig6bPoint, error) {
	names, ms, err := synIntensities(scale, seed)
	if err != nil {
		return nil, err
	}
	var out []Fig6bPoint
	for ti := range ms {
		m := ms[ti]
		for _, limit := range sizeLimits {
			if limit < 1 {
				continue
			}
			sgi, err := grouping.New(grouping.Config{SizeLimit: limit, Seed: seed})
			if err != nil {
				return nil, err
			}
			start := time.Now() //lazyvet:allow determinism fig6b measures real IniGroup compute time; the duration is reported, never fed back into simulated state
			grp, err := sgi.IniGroup(m)
			if err != nil {
				return nil, fmt.Errorf("eval: fig6b %s limit=%d: %w", names[ti], limit, err)
			}
			elapsed := time.Since(start) //lazyvet:allow determinism fig6b reports wall time of the computation itself
			// One IncUpdate round for the speed comparison.
			start = time.Now() //lazyvet:allow determinism fig6b measures real IncUpdate compute time
			if _, err := sgi.IncUpdate(grp, m, nil); err != nil {
				return nil, err
			}
			incElapsed := time.Since(start) //lazyvet:allow determinism fig6b reports wall time of the computation itself
			out = append(out, Fig6bPoint{
				Trace:      names[ti],
				SizeLimit:  limit,
				Elapsed:    elapsed,
				IncElapsed: incElapsed,
			})
		}
	}
	return out, nil
}

// Series names for Fig. 7/8/9.
const (
	SeriesOpenFlow        = "OpenFlow"
	SeriesRealStatic      = "LazyCtrl (real, static)"
	SeriesRealDynamic     = "LazyCtrl (real, dynamic)"
	SeriesExpandedStatic  = "LazyCtrl (expanded, static)"
	SeriesExpandedDynamic = "LazyCtrl (expanded, dynamic)"
)

// Fig789Config drives the three trace-replay figures, which share the
// same five emulation runs. All five run per-flow (5-tuple) reactive
// rules — the paper's rule granularity, applied uniformly so the
// comparison is between control planes, not rule shapes: the reduction
// then measures the fraction of escalations the group-local controllers
// absorb and lands in the paper's 61–82% band, tracking each trace's
// centrality (with exact-dst rules a 60 s idle timeout keeps every rule
// warm at full pair density and both sides' workloads collapse — the
// density artifact, docs/emulation.md).
type Fig789Config struct {
	// Scale divides the real trace's 271M flows. Benchmarks use 5000
	// (54k flows); unit tests use much larger divisors. Scale 1 is the
	// paper's full trace — reachable end to end through the sampled or
	// fluid engine.
	Scale int
	Seed  uint64
	// Horizon truncates the day (0 = 24h).
	Horizon time.Duration
	// Engine and SampleProb select the replay engine for all five runs
	// (see EmulationConfig). EngineFluid means both analytic folds — the
	// aggregate population fold and the control fold (setEngine) — which
	// is what makes Scale 1 reachable.
	Engine     replay.Engine
	SampleProb float64
	// Trace overrides the replayed workload (nil selects the real
	// day-long trace at Scale). The expanded series still derive from
	// it by the +30% silent-pair expansion, and the warmup intensity
	// samples a 10×-denser generation of the same config.
	Trace *trace.GeneratorConfig
	// WarmupScale overrides the warmup-intensity generation's scale
	// divisor (0 keeps the default Scale/10, min 1). Full-scale sweeps
	// set a coarser divisor: the warmup intensity only seeds the
	// initial grouping, and tens of millions of first-hour flows pin
	// the pair ranking just as well as hundreds of millions.
	WarmupScale int
	// HostSampling and TraceSample pass through to every series' run
	// (EmulationConfig.HostSampling / TraceSample): host-level
	// sampling for the sampled engine, and the causal span tracer's
	// head-sampling rate (0 = tracing off).
	HostSampling bool
	TraceSample  float64
}

// Fig789Result carries one named series per emulation run.
type Fig789Result struct {
	Series map[string]*EmulationResult
	// ReductionStatic/Dynamic are the Fig. 7 headline numbers: workload
	// reduction of LazyCtrl vs OpenFlow on the real trace.
	ReductionRealStatic      float64
	ReductionRealDynamic     float64
	ReductionExpandedStatic  float64
	ReductionExpandedDynamic float64
}

// RunFig789 executes the five runs of Fig. 7 (which also produce Fig. 8
// and Fig. 9): OpenFlow on the real trace, LazyCtrl static/dynamic on
// the real trace, and LazyCtrl static/dynamic on the expanded trace
// (+30% flows among previously silent pairs during hours 8–24).
func RunFig789(cfg Fig789Config) (*Fig789Result, error) { return runFig789(cfg, false) }

// setEngine selects a driver run's replay engine, and is the one place
// that says what the choice expands to (RunFig789 and the CLIs' -engine
// both come through here): EngineFluid means the aggregate population
// fold plus the control fold. Every generator and expanded stream
// implements trace.AggStream, so the drivers never need the per-flow
// fluid fold; it stays the reference the aggregate fold is pinned
// against, reachable only by setting EmulationConfig's fields directly.
func (c *EmulationConfig) setEngine(engine replay.Engine, sampleProb float64) {
	c.Engine, c.SampleProb = engine, sampleProb
	c.AggregatePopulation = engine == replay.EngineFluid
	c.ControlFold = engine == replay.EngineFluid
}

// fig789Inputs builds what the five runs share: the real and expanded
// streams and the warm-up intensity.
func fig789Inputs(cfg Fig789Config) (real, expanded trace.Stream, warm *grouping.Intensity, err error) {
	if cfg.Scale < 1 {
		return nil, nil, nil, fmt.Errorf("eval: Scale must be ≥ 1")
	}
	// The real→expanded stream chain and the warmup-intensity generation
	// are independent: overlap them. Warmup sees the full (unscaled)
	// first hour; sample it from a 10×-denser generation of the same
	// traffic distribution (identical topology and pair pools under the
	// same seed) — streamed, so only the first hour's windows of the
	// denser trace are ever generated.
	baseCfg := trace.RealLikeConfig(cfg.Scale, cfg.Seed)
	if cfg.Trace != nil {
		baseCfg = *cfg.Trace
	}
	err = parallelFor(2, func(i int) error {
		switch i {
		case 0:
			var err error
			real, err = trace.NewStream(baseCfg)
			if err != nil {
				return err
			}
			expanded, err = trace.ExpandStream(real, 0.30, 8, 24, cfg.Seed^0xe)
			return err
		default:
			warmCfg := baseCfg
			warmCfg.Scale = baseCfg.Scale / 10
			if warmCfg.Scale < 1 {
				warmCfg.Scale = 1
			}
			if cfg.WarmupScale > 0 {
				warmCfg.Scale = cfg.WarmupScale
			}
			warmCfg.WindowsPerHour = 0 // auto-size the warmup windows independently
			warmStream, err := trace.NewStream(warmCfg)
			if err != nil {
				return err
			}
			warm = trace.StreamIntensity(warmStream, 0, time.Hour)
			return nil
		}
	})
	return real, expanded, warm, err
}

// runFig789 is RunFig789 with the test seam: perFlowFold keeps the
// fluid engine on the per-flow population fold, the reference
// TestAggregatePopulationDifferential pins the aggregate fold against.
func runFig789(cfg Fig789Config, perFlowFold bool) (*Fig789Result, error) {
	real, expanded, warm, err := fig789Inputs(cfg)
	if err != nil {
		return nil, err
	}
	runs := []struct {
		name    string
		src     trace.Stream
		mode    controller.Mode
		dynamic bool
	}{
		{SeriesOpenFlow, real, controller.ModeLearning, false},
		{SeriesRealStatic, real, controller.ModeLazy, false},
		{SeriesRealDynamic, real, controller.ModeLazy, true},
		{SeriesExpandedStatic, expanded, controller.ModeLazy, false},
		{SeriesExpandedDynamic, expanded, controller.ModeLazy, true},
	}
	// The five emulations are deterministic per seed and share no mutable
	// state (each owns its simulator; stream windows regenerate
	// per-consumer from read-only pools, and the warmup matrix is
	// read-only), so they fan out across the worker pool.
	results := make([]*EmulationResult, len(runs))
	err = parallelFor(len(runs), func(i int) error {
		r := runs[i]
		ec := EmulationConfig{
			Source:          r.src,
			Mode:            r.mode,
			Dynamic:         r.dynamic,
			Horizon:         cfg.Horizon,
			Seed:            cfg.Seed,
			WarmupIntensity: warm,
			PerFlowBaseline: true,
			HostSampling:    cfg.HostSampling,
			TraceSample:     cfg.TraceSample,
		}
		ec.setEngine(cfg.Engine, cfg.SampleProb)
		if perFlowFold {
			ec.AggregatePopulation = false
		}
		res, err := RunEmulation(ec)
		if err != nil {
			return fmt.Errorf("eval: %s: %w", r.name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fig789Result{Series: make(map[string]*EmulationResult, len(runs))}
	for i, r := range runs {
		out.Series[r.name] = results[i]
	}
	base := out.Series[SeriesOpenFlow].WorkloadKrps
	out.ReductionRealStatic = Reduction(base, out.Series[SeriesRealStatic].WorkloadKrps)
	out.ReductionRealDynamic = Reduction(base, out.Series[SeriesRealDynamic].WorkloadKrps)
	out.ReductionExpandedStatic = Reduction(base, out.Series[SeriesExpandedStatic].WorkloadKrps)
	out.ReductionExpandedDynamic = Reduction(base, out.Series[SeriesExpandedDynamic].WorkloadKrps)
	return out, nil
}

// ColdCacheResult reproduces the §V-E cold-cache comparison: 45 fresh
// flows among 5 newly deployed hosts.
type ColdCacheResult struct {
	// LazyIntra is the mean first-packet latency for intra-group flows
	// under LazyCtrl (paper: 0.83 ms).
	LazyIntra time.Duration
	// LazyInter is the inter-group cold-cache latency (paper: 5.38 ms).
	LazyInter time.Duration
	// OpenFlow is the baseline cold-cache latency (paper: 15.06 ms).
	OpenFlow time.Duration
}

// StorageRow is one group-size row of the §V-D storage analysis.
type StorageRow struct {
	GroupSize int
	// GFIBBytes is the per-switch G-FIB footprint: (groupSize−1)
	// filters of 16 128-byte entries.
	GFIBBytes int
	// FPP is the false-positive probability at the given hosts/switch
	// occupancy.
	FPP float64
	// HostsPerSwitch used for the FPP estimate.
	HostsPerSwitch int
}

// Storage computes the Bloom-filter storage table for the given group
// sizes (the paper's example: 46 switches → 92,160 bytes, FPP < 0.1%).
func Storage(groupSizes []int, hostsPerSwitch int) []StorageRow {
	if hostsPerSwitch <= 0 {
		hostsPerSwitch = 24 // 6509 hosts / 272 switches
	}
	rows := make([]StorageRow, 0, len(groupSizes))
	for _, size := range groupSizes {
		if size < 2 {
			continue
		}
		g := fib.NewGFIB()
		for i := 1; i < size; i++ {
			g.SetFilter(model.SwitchID(i), bloom.New(fib.DefaultFilterBits, fib.DefaultFilterHashes))
		}
		rows = append(rows, StorageRow{
			GroupSize:      size,
			GFIBBytes:      g.SizeBytes(),
			FPP:            bloom.FPPFor(fib.DefaultFilterBits, fib.DefaultFilterHashes, uint64(2*hostsPerSwitch)),
			HostsPerSwitch: hostsPerSwitch,
		})
	}
	return rows
}
