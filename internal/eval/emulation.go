// Package eval implements the experiment drivers that regenerate every
// table and figure of the LazyCtrl evaluation (§V): the trace-driven
// emulation harness (controller + edge switches over the DES underlay)
// and one driver per artifact — Table II, Fig. 6(a)/(b), Fig. 7, Fig. 8,
// Fig. 9, the §V-E cold-cache comparison, and the §V-D storage analysis.
package eval

import (
	"fmt"
	"math"
	"time"

	"lazyctrl/internal/chaos"
	"lazyctrl/internal/controller"
	"lazyctrl/internal/edge"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/metrics"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/replay"
	"lazyctrl/internal/rig"
	"lazyctrl/internal/sim"
	"lazyctrl/internal/telemetry"
	"lazyctrl/internal/trace"
)

// The eval cadence set: the control-plane timers every emulation runs
// on, and the constants derived from them (the fluid engine's warm-up
// offsets, the chaos probe and settle round, TakeoverRounds).
const (
	// advertiseInterval is the member → designated advertisement
	// cadence, and with it the length of one dissemination round.
	advertiseInterval = 10 * time.Second
	// reportInterval is the designated → controller state-report
	// cadence unless EmulationConfig.ReportInterval overrides it.
	reportInterval    = 30 * time.Second
	keepAliveInterval = time.Minute
	syncInterval      = 30 * time.Second
	ruleIdleTimeout   = 60 * time.Second
	// warmupWindow is the intensity window behind the initial grouping
	// (the paper seeds it with the first hour of traffic).
	warmupWindow = time.Hour
)

// EmulationConfig drives one trace replay over the full stack.
type EmulationConfig struct {
	// Source supplies the replayed flows as time-ordered windows. Pass
	// a generator stream (trace.NewStream) to keep the replay's flow
	// memory flat in trace length, or a materialized trace's adapter
	// (Trace.Stream) for small tests.
	Source trace.Stream
	// Mode selects LazyCtrl or the OpenFlow learning baseline.
	Mode controller.Mode
	// Dynamic enables incremental regrouping (lazy mode).
	Dynamic bool
	// GroupSizeLimit caps LCG sizes. Zero selects 46.
	GroupSizeLimit int
	// Horizon truncates the replay (0 = full trace duration).
	Horizon time.Duration
	// BucketWidth sets the metrics bucket (0 = 2h, the paper's x-axis).
	BucketWidth time.Duration
	// Seed drives the simulator and grouping.
	Seed uint64
	// WarmupIntensity overrides the initial-grouping input, by default
	// the source's own first hour (the paper seeds grouping with the
	// first-hour traffic pattern). The paper's controller sees the full
	// unscaled first hour (~11M flows); a scaled-down replay
	// under-samples it, so RunFig789 supplies an intensity sampled from
	// a denser generation of the same traffic distribution.
	WarmupIntensity *grouping.Intensity
	// ReportInterval overrides the designated switches' state-link
	// cadence. Zero selects 30 s.
	ReportInterval time.Duration

	// Engine selects the replay engine (docs/emulation.md): EngineDES
	// (the default) injects every flow into the discrete-event
	// underlay; EngineSampled injects a deterministic hash-sampled pair
	// subpopulation and reweights the traffic-driven estimators by 1/p,
	// with confidence bands; EngineFluid folds the full population into
	// per-(group-pair, bucket) rate aggregates for workload and injects
	// only a sampled latency-probe population.
	Engine replay.Engine
	// SampleProb is the pair-sampling probability p of EngineSampled,
	// and the latency-probe population of EngineFluid. Zero selects 0.1
	// (sampled) / 0.02 (fluid); ignored by EngineDES.
	SampleProb float64
	// HostSampling switches EngineSampled from independent pair
	// sampling to host-level sampling: each host is hash-kept with
	// probability q = √SampleProb and a pair is injected iff both
	// endpoints are kept, so SampleProb keeps its meaning as the pair
	// inclusion probability (π = q²). A kept host then contributes its
	// complete flow fan-out within the kept subpopulation, which
	// shrinks the learning-baseline latency bias of destination
	// silencing: the baseline locates hosts passively, so a host whose
	// every outbound pair is sampled out is never learned and all
	// traffic toward it floods forever. Each outbound pair survives
	// with q = √SampleProb instead of SampleProb
	// (BenchmarkHostSamplingBias pins the measured reduction; see
	// docs/emulation.md). Estimator confidence bands widen to account
	// for the host-level correlation. Requires EngineSampled.
	HostSampling bool
	// PacketInBatchMax configures the edge switches' control-link
	// micro-batching. Zero selects the default — on, 8 packets inside
	// edge.DefaultPacketInBatchWindow, now that the batching delay is
	// modeled explicitly in the latency accounting (see
	// replay.ExpectedBatchDelay); a negative value disables batching.
	PacketInBatchMax int

	// ControlFold folds quiescent control-plane background rounds
	// (keep-alives, idle advertisements/beacons, empty reports) into
	// closed-form credits, leaving only state-changing control events
	// in the DES (docs/emulation.md, "control-plane fold"). Any
	// underlay fault re-materializes every folded timer, so fault
	// scenarios see real rounds throughout.
	ControlFold bool
	// MeterWire meters the encoded wire bytes of every control-plane
	// message — real sends and folded credits alike — into the
	// result's ControlMsgs/ControlBytes, the folded-vs-full
	// differential's byte-exactness probe. Off by default: it encodes
	// each metered message once.
	MeterWire bool
	// PerFlowBaseline selects the per-flow (5-tuple) reactive rule
	// mode for the learning baseline: every distinct flow's first
	// packet escalates to the controller instead of riding a warm
	// exact-dst rule (controller.Config.PerFlowRules and
	// replay.FluidConfig.PerFlowBaseline).
	PerFlowBaseline bool
	// AggregatePopulation switches the fluid engine's population input
	// from per-flow windows to analytic (pair, window) aggregate cells
	// (trace.AggStream → replay.Fluid.FoldAggWindow): the population
	// cost per window becomes O(active pairs) instead of O(flows),
	// which is what makes the Scale=1 Syn-A/B/C sweeps reachable
	// inside a CI budget. The latency-probe subpopulation is still
	// materialized flow by flow from the kept pairs' cells. Requires
	// EngineFluid and a Source implementing trace.AggStream.
	AggregatePopulation bool

	// Standby attaches a hot-standby controller replica at
	// model.StandbyNode: the primary journals C-LIB/grouping/failure
	// state to it, heartbeats it, and every controller→edge push is
	// fenced by the cluster generation (docs/robustness.md#failover).
	// Edges track in-flight escalations for dedup across a takeover.
	Standby bool

	// Chaos schedules a fault scenario against the run and arms the
	// convergence checker: after the horizon and the last fault's undo,
	// the run settles in dissemination/report rounds — at most
	// chaos.DefaultRecoveryRoundBound of them — until every edge
	// G-FIB/L-FIB view, the C-LIB, and all per-peer version state match
	// the fault-free fixpoint (docs/robustness.md); while faults are
	// live, the no-stale-adoption probe samples every dissemination
	// round. An empty plan is valid and useful: it runs the checker and
	// captures the fixpoint snapshot without injecting anything — the
	// fault-free side of the differential test.
	Chaos *chaos.Plan

	// StateShards overrides the controller's lock-stripe count (0 =
	// controller default). Results are shard-count-independent by
	// construction — wire-delivered bursts are decided in input order,
	// only the exported ProcessBurst fans out — and the telemetry
	// differential tests pin that span trees are too.
	StateShards int
	// TraceSample enables the causal span tracer at the given
	// head-sampling rate in (0,1]: kept traces follow each PacketIn
	// (and regroup round, and failover) through the control stack on
	// the sim clock. 0 disables tracing entirely (the default; every
	// instrumentation site then costs one nil check).
	TraceSample float64
	// FlightDepth arms per-node flight recorders of the last N wire
	// events (negative = off). 0 selects telemetry.DefaultFlightDepth
	// when a Chaos plan is present — the chaos checker embeds the
	// recorder tails in its invariant-violation reports — and off
	// otherwise.
	FlightDepth int
}

func (c EmulationConfig) withDefaults() (EmulationConfig, error) {
	if c.Source == nil {
		return c, fmt.Errorf("eval: nil flow source")
	}
	if c.Mode == 0 {
		c.Mode = controller.ModeLazy
	}
	if c.GroupSizeLimit == 0 {
		c.GroupSizeLimit = 46
	}
	if d := c.Source.Info().Duration; c.Horizon == 0 || c.Horizon > d {
		c.Horizon = d
	}
	if c.BucketWidth == 0 {
		c.BucketWidth = 2 * time.Hour
	}
	if c.ReportInterval == 0 {
		c.ReportInterval = reportInterval
	}
	if c.SampleProb == 0 {
		switch c.Engine {
		case replay.EngineSampled:
			c.SampleProb = 0.1
		case replay.EngineFluid:
			c.SampleProb = 0.02
		}
	}
	if c.Engine == replay.EngineDES {
		c.SampleProb = 1
	}
	if c.AggregatePopulation {
		if c.Engine != replay.EngineFluid {
			return c, fmt.Errorf("eval: AggregatePopulation requires the fluid engine")
		}
		if _, ok := c.Source.(trace.AggStream); !ok {
			return c, fmt.Errorf("eval: AggregatePopulation requires an aggregate-capable source (trace.AggStream)")
		}
	}
	if c.SampleProb <= 0 || c.SampleProb > 1 {
		return c, fmt.Errorf("eval: SampleProb %v outside (0,1]", c.SampleProb)
	}
	if c.HostSampling && c.Engine != replay.EngineSampled {
		return c, fmt.Errorf("eval: HostSampling requires the sampled engine")
	}
	if c.TraceSample < 0 || c.TraceSample > 1 {
		return c, fmt.Errorf("eval: TraceSample %v outside [0,1]", c.TraceSample)
	}
	if c.PacketInBatchMax == 0 {
		c.PacketInBatchMax = 8
	}
	if c.PacketInBatchMax < 0 {
		c.PacketInBatchMax = 1 // ≤1 ships every PacketIn immediately
	}
	if c.FlightDepth == 0 && c.Chaos != nil {
		// The chaos checker embeds the recorder tails in its reports.
		c.FlightDepth = telemetry.DefaultFlightDepth
	}
	return c, nil
}

// EmulationResult aggregates everything the figures need from one run.
type EmulationResult struct {
	Mode    controller.Mode
	Dynamic bool
	// Engine echoes the engine that produced the result; SampleProb is
	// the realized pair-sampling probability (1 for the DES engine).
	Engine     replay.Engine
	SampleProb float64
	// Recorder holds bucketed workload, latency, and update series
	// (including the cold-latency histogram behind
	// Recorder.ColdLatencyQuantile).
	Recorder *metrics.Recorder
	// WorkloadKrps is the Fig. 7 series: controller requests per second
	// (unscaled via the trace's Scale and, for the sampled engines, the
	// sampling probability), per bucket, in thousands.
	WorkloadKrps []float64
	// WorkloadStdErrKrps is the per-bucket 1σ sampling error of the
	// traffic-driven part of WorkloadKrps (EngineSampled only; nil
	// otherwise — the fluid engine's workload aggregates the full
	// population and carries no sampling error).
	WorkloadStdErrKrps []float64
	// AvgLatencyMs is the Fig. 9 series per bucket.
	AvgLatencyMs []float64
	// UpdatesPerHour is the Fig. 8 series.
	UpdatesPerHour []uint64
	// ColdCacheLatency is the mean first-packet latency.
	ColdCacheLatency time.Duration
	// FlowsInjected and FlowsDelivered count the first packets the DES
	// actually carried (the sampled subpopulation under the sampled and
	// fluid engines); PopulationFlows counts every in-horizon flow the
	// engine accounted for, injected or aggregated.
	FlowsInjected   int
	FlowsDelivered  int
	PopulationFlows int
	// BatchDelayObserved is the measured mean residence of a PacketIn
	// in the edge micro-batching window; BatchDelayModeled is the
	// analytic expectation (replay.ExpectedBatchDelay) at the realized
	// arrival rate. Both zero with batching disabled.
	BatchDelayObserved time.Duration
	BatchDelayModeled  time.Duration
	// SimEvents is how many discrete events the underlying simulator
	// executed (the scaled engines' cost metric).
	SimEvents uint64
	// ControlMsgs and ControlBytes count control-plane messages and
	// their encoded wire bytes across the control and peer links —
	// real sends plus folded credits — populated when
	// EmulationConfig.MeterWire is set.
	ControlMsgs  uint64
	ControlBytes uint64
	// IdleRefreshes aggregates the edges' idle version beacons (real
	// plus fold-credited), a fold-differential observable.
	IdleRefreshes uint64
	// Drops breaks the underlay's dropped messages down by cause:
	// down-at-send, down-at-delivery, no-route, injected loss, and
	// partitions.
	Drops netsim.DropStats
	// DegradedFloods and DegradedWindow aggregate the edges' degraded
	// mode across the run: packets flooded on the controller-silent
	// fallback path and total wall time spent degraded.
	DegradedFloods uint64
	DegradedWindow time.Duration
	// Chaos results (zero unless EmulationConfig.Chaos was set):
	// RecoveryRounds is how many settle rounds the world needed after
	// the last fault to re-reach the fixpoint; Converged reports
	// whether it did within the bound; Divergences carries the
	// remaining violations when it did not; StaleAdoptions lists
	// no-stale-adoption probe violations observed mid-run; Fixpoint is
	// the canonical content snapshot (chaos.World.Snapshot) for
	// cross-run differential comparison.
	RecoveryRounds int
	Converged      bool
	Divergences    []string
	StaleAdoptions []string
	Fixpoint       string
	// Failover results (zero unless EmulationConfig.Standby):
	// Takeovers/StepDowns count role transitions across both replicas,
	// TakeoverTimelines carries each takeover's phase boundaries in
	// order, and the three edge aggregates meter the fence
	// (StaleGenRejected) and the escalation dedup across the handoff
	// (DupEscalationsSuppressed, EscalationsReflushed).
	Takeovers                uint64
	StepDowns                uint64
	TakeoverTimelines        []controller.TakeoverTimeline
	StaleGenRejected         uint64
	DupEscalationsSuppressed uint64
	EscalationsReflushed     uint64
	// ControllerStats is the controller's own view.
	ControllerStats controller.Stats
	// FinalGroups is the group count at the end of the run.
	FinalGroups int
	// Metrics is the unified telemetry registry: every counter above is
	// also exposed through it as a snapshot-time view (WriteProm /
	// WriteJSONL for exposition). Always non-nil.
	Metrics *telemetry.Registry
	// Spans holds the completed causal spans when
	// EmulationConfig.TraceSample was set (nil otherwise). Takeover
	// timelines are absorbed into it as "failover" trees.
	Spans *telemetry.Tracer
}

// emulation is the state of one RunEmulation call. The run is cut into
// build-rig → attachments → window loop → summarise (docs/emulation.md,
// "Harness architecture"); this file owns the first and the last,
// attach.go the attachments, windows.go the window loop.
type emulation struct {
	c    EmulationConfig // defaults applied
	info trace.StreamInfo
	rec  *metrics.Recorder
	res  *EmulationResult
	// rig is set by buildRig. The hooks the config templates carry
	// (tracer clock, fold oracles, regroup notification) read it lazily:
	// they first run on the simulated clock, after rig.New has returned.
	rig *rig.Rig

	// The scaled engines: sampler and estimator select and reweight the
	// injected subpopulation (nil at p = 1), fluid folds the full
	// population into rate aggregates (nil unless EngineFluid).
	sampler   *replay.PairSampler
	estimator *replay.Estimator
	fluid     *replay.Fluid

	flights map[model.SwitchID]*telemetry.Flight // nil without flight recorders
	world   *chaos.World                         // nil without a chaos plan
}

// RunEmulation replays a trace against the full control stack and
// collects the evaluation metrics. Flows are drawn from the source one
// window at a time — the next window generates on the prefetch
// pipeline while the simulator drains the current one — so the
// replay's flow memory is O(window), not O(trace). The Engine field
// selects how flows become load: exact per-flow events (DES), a
// reweighted sampled subpopulation, or fluid rate aggregation with a
// DES probe population (see package replay and docs/emulation.md).
func RunEmulation(cfg EmulationConfig) (*EmulationResult, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &emulation{c: c, info: c.Source.Info(), rec: metrics.NewRecorder(c.Horizon, c.BucketWidth)}
	e.res = &EmulationResult{
		Mode: c.Mode, Dynamic: c.Dynamic, Engine: c.Engine,
		SampleProb: c.SampleProb, Recorder: e.rec,
		Metrics: telemetry.NewRegistry(),
	}
	if err := e.buildRig(); err != nil {
		return nil, err
	}
	e.attachWireMeter()
	e.attachControlFold()
	e.attachFlights()

	// Initial grouping from the warm-up window. Only that window's trace
	// windows are generated.
	if c.Mode == controller.ModeLazy {
		warm := c.WarmupIntensity
		if warm == nil {
			warm = trace.StreamIntensity(c.Source, 0, min(warmupWindow, c.Horizon))
		}
		if err := e.rig.Primary().InitialGrouping(warm); err != nil {
			return nil, err
		}
	}
	// The plan is scheduled after the initial grouping so actions that
	// resolve group structure at fire time (ControlCut, CrashDesignated)
	// see real groups.
	e.attachChaos()

	flushFolds, closeSource := e.scheduleWindows()
	defer closeSource()
	e.rig.Sim().RunUntil(sim.Time(c.Horizon))
	// Fold the windows whose end never arrived inside the horizon, under
	// the final grouping and the full epoch timeline.
	flushFolds()

	e.settleChaos()
	// Settle every folded timer at the horizon so credited rounds, wire
	// bytes, and report buckets are exact through the end of the run
	// before any aggregate is read. (Wake schedules one real round past
	// the horizon; it never executes.)
	if c.ControlFold {
		e.wakeFolds()
	}
	e.summarise()
	return e.res, nil
}

// now is the simulated clock, for hooks built before the rig exists.
func (e *emulation) now() time.Duration { return e.rig.Now() }

// buildRig derives the engine state and the two config templates from
// the emulation config and wires the world.
func (e *emulation) buildRig() error {
	c, res := e.c, e.res
	if c.TraceSample > 0 {
		res.Spans = telemetry.NewTracer(e.now, c.TraceSample, c.Seed)
	}

	// The scaled engines inject only a p-fraction of the pairs; the
	// controller's queueing model must still see the unscaled arrival
	// rate, so the sampling probability folds into its load scale
	// alongside the trace's flow-count divisor.
	loadScale := e.info.Scale
	if c.SampleProb < 1 {
		buckets := e.rec.Buckets()
		if c.HostSampling {
			// Host-level mode: keep hosts at q = √p so the pair
			// inclusion probability — and hence loadScale — is still p.
			q := math.Sqrt(c.SampleProb)
			e.sampler = replay.NewHostSampler(q, c.Seed)
			if c.Engine == replay.EngineSampled {
				e.estimator = replay.NewHostEstimator(q, buckets)
			}
		} else {
			e.sampler = replay.NewPairSampler(c.SampleProb, c.Seed)
			if c.Engine == replay.EngineSampled {
				e.estimator = replay.NewEstimator(c.SampleProb, buckets)
			}
		}
		loadScale = int(float64(e.info.Scale)/c.SampleProb + 0.5)
	}

	// The fluid engine folds every window's full flow population into
	// per-bucket rate aggregates under the live grouping; its warm-up
	// constants mirror the harness cadences (C-LIB fills at the first
	// state report, G-FIBs one advertise + dissemination round after
	// that).
	var onRegroup func(uint64, *grouping.Grouping)
	if c.Engine == replay.EngineFluid {
		e.fluid = replay.NewFluid(replay.FluidConfig{
			Directory:       e.info.Directory,
			Lazy:            c.Mode == controller.ModeLazy,
			Horizon:         c.Horizon,
			BucketWidth:     c.BucketWidth,
			RuleIdleTimeout: ruleIdleTimeout,
			GFIBWarm:        advertiseInterval + c.ReportInterval,
			// The initial grouping push kicks every designated switch
			// into reporting immediately, so the C-LIB knows all
			// attached hosts a couple of control round-trips in — long
			// before the periodic report cadence.
			CLIBWarm:        2 * time.Second,
			PerFlowBaseline: c.PerFlowBaseline,
		})
		// Every (re)grouping lands on the fluid's epoch timeline as an
		// immutable snapshot, so window folds attribute each flow to the
		// assignment in force at its start time.
		if c.Mode == controller.ModeLazy {
			onRegroup = func(version uint64, grp *grouping.Grouping) {
				e.fluid.NoteRegroup(e.now(), grp.Clone(), version)
			}
		}
	}

	ctrl := controller.Config{
		Mode:              c.Mode,
		GroupSizeLimit:    c.GroupSizeLimit,
		Seed:              c.Seed,
		LoadScale:         loadScale,
		Dynamic:           c.Dynamic,
		Recorder:          e.rec,
		RuleIdleTimeout:   ruleIdleTimeout,
		KeepAliveInterval: keepAliveInterval,
		SyncInterval:      syncInterval,
		PerFlowRules:      c.PerFlowBaseline,
		OnRegroup:         onRegroup,
		StateShards:       c.StateShards,
		Tracer:            res.Spans,
	}
	sw := edge.Config{
		AdvertiseInterval: advertiseInterval,
		ReportInterval:    c.ReportInterval,
		PacketInBatchMax:  c.PacketInBatchMax,
		Tracer:            res.Spans,
		OnDeliver: func(p *model.Packet, at time.Duration) {
			if p.FlowSeq == 0 {
				res.FlowsDelivered++
				e.rec.RecordColdLatency(at, at-p.Injected)
			}
		},
	}
	if c.ControlFold {
		hooks := e.foldHooks()
		ctrl.FoldGate, ctrl.FoldMeter = hooks.Gate, hooks.Meter
		sw.Fold = hooks
	}
	r, err := rig.New(e.info.Directory, ctrl, sw, c.Standby)
	if err != nil {
		return err
	}
	e.rig = r
	registerMetrics(res.Metrics, r, res.Spans, res)
	return nil
}

// summarise reads the result's series and aggregates off the recorder,
// the engines, and the rig once the run (and any chaos settle) is over.
func (e *emulation) summarise() {
	c, res, rec := e.c, e.res, e.rec
	// Traffic-driven requests scale with the trace's flow-count divisor
	// (and the inverse sampling probability under the sampled engines);
	// periodic control work (state reports, regroup pushes) does not —
	// a real deployment sends the same handful per interval regardless
	// of traffic volume.
	var traffic []float64
	if e.fluid != nil {
		// The fluid engine's traffic series comes from the aggregated
		// rates of the full population, not from the probe DES.
		res.PopulationFlows = e.fluid.Population()
		counts := e.fluid.TrafficRequests()
		traffic = make([]float64, rec.Buckets())
		sec := c.BucketWidth.Seconds()
		for i := 0; i < len(traffic) && i < len(counts); i++ {
			traffic[i] = counts[i] * float64(e.info.Scale) / sec
		}
	} else {
		traffic = rec.WorkloadRPSForScaled(float64(e.info.Scale)/c.SampleProb,
			metrics.ReqPacketIn, metrics.ReqARPRelay)
	}
	periodic := rec.WorkloadRPSFor(1, metrics.ReqStateReport, metrics.ReqRegroup)
	combined := make([]float64, len(traffic))
	for i := range combined {
		combined[i] = traffic[i] + periodic[i]
	}
	res.WorkloadKrps = krps(combined)
	if e.estimator != nil {
		rel := e.estimator.RelStdErr()
		res.WorkloadStdErrKrps = make([]float64, len(traffic))
		for i := range traffic {
			res.WorkloadStdErrKrps[i] = traffic[i] * rel[i] / 1000
		}
	}
	res.AvgLatencyMs = toMs(rec.AvgLatencyPerBucket())
	res.UpdatesPerHour = rec.UpdatesPerHour()
	res.ColdCacheLatency = rec.AvgColdLatency()
	// The primary's own view, also after a takeover (see the field docs).
	res.ControllerStats = e.rig.Primary().Stats()
	res.FinalGroups = e.rig.Primary().Grouping().NumGroups()
	res.SimEvents = e.rig.Sim().Executed()
	res.Drops = e.rig.Net().Drops

	// Edge aggregates, including the batching-delay accounting: the
	// measured mean residence of a PacketIn in the micro-batching window
	// against the modeled expectation at the realized per-switch arrival
	// rate.
	edges := e.rig.Edges()
	var wait time.Duration
	var waited uint64
	for _, sw := range edges {
		st := sw.Stats()
		res.DegradedFloods += st.DegradedFloods
		res.DegradedWindow += st.DegradedWindow
		res.IdleRefreshes += st.IdleRefreshes
		res.StaleGenRejected += st.StaleGenRejected
		res.DupEscalationsSuppressed += st.DupEscalationsSuppressed
		res.EscalationsReflushed += st.EscalationsReflushed
		wait += st.PinBatchWait
		waited += st.PinBatchWaited
	}
	if c.PacketInBatchMax > 1 && waited > 0 {
		res.BatchDelayObserved = wait / time.Duration(waited)
		rate := float64(waited) / (float64(len(edges)) * c.Horizon.Seconds())
		res.BatchDelayModeled = replay.ExpectedBatchDelay(rate, edge.DefaultPacketInBatchWindow, c.PacketInBatchMax)
	}
	if c.Standby {
		for _, r := range e.rig.Controllers() {
			st := r.Stats()
			res.Takeovers += st.Takeovers
			res.StepDowns += st.StepDowns
			res.TakeoverTimelines = append(res.TakeoverTimelines, r.TakeoverTimelines()...)
		}
		if res.Spans != nil {
			for _, tl := range res.TakeoverTimelines {
				absorbTakeover(res.Spans, tl)
			}
		}
	}
}

func krps(rps []float64) []float64 {
	out := make([]float64, len(rps))
	for i, v := range rps {
		out[i] = v / 1000
	}
	return out
}

func toMs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(time.Millisecond)
	}
	return out
}

// Mean returns the average of a series (0 for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Reduction returns 1 − mean(b)/mean(a): the workload reduction of b
// relative to baseline a.
func Reduction(baseline, improved []float64) float64 {
	mb := Mean(baseline)
	if mb == 0 {
		return 0
	}
	return 1 - Mean(improved)/mb
}
