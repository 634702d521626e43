package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"lazyctrl/internal/chaos"
	"lazyctrl/internal/controller"
	"lazyctrl/internal/eval"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/replay"
	"lazyctrl/internal/trace"
)

// sizes fixes how much work one iteration of each workload does. They are
// constants of the benchmark: never adapted to the machine or the run.
type sizes struct {
	replayScale                                       int // RealLike divisor of the two replay workloads
	replayHorizon                                     time.Duration
	backgroundScale                                   int
	backgroundHorizon                                 time.Duration
	stormSwitches, stormHosts, stormEvents, stormRuns int
	regroupScale                                      int // Syn-A divisor; Syn-B/C scale with it as in eval.Fig6b
	regroupSweeps                                     int
	chaosScale                                        int
	fluidScale                                        int
	fluidHorizon                                      time.Duration
	// driverDiv divides the layer drivers' call counts: 1 for real runs.
	driverDiv int
	// profileFor is the length of the CPU-profiled pass: iterations repeat
	// until it has passed. Five seconds of a one-thread run, at the 200 to
	// 250 samples per second a Linux timer gives, is over a thousand
	// samples.
	profileFor time.Duration
}

var fullSizes = sizes{
	replayScale: 100, replayHorizon: time.Hour,
	backgroundScale: 50_000, backgroundHorizon: 12 * time.Hour,
	stormSwitches: 272, stormHosts: 16384, stormEvents: 65536, stormRuns: 20,
	regroupScale: 60_000, regroupSweeps: 4,
	chaosScale: 500,
	fluidScale: 50, fluidHorizon: 24 * time.Hour,
	driverDiv: 1, profileFor: 5 * time.Second,
}

// shortSizes is the -short pass of main_test.go: every code path of the
// full sizes, in a fraction of a second each.
var shortSizes = sizes{
	replayScale: 20_000, replayHorizon: 20 * time.Minute,
	backgroundScale: 500_000, backgroundHorizon: time.Hour,
	stormSwitches: 16, stormHosts: 256, stormEvents: 1024, stormRuns: 2,
	regroupScale: 2_000_000, regroupSweeps: 1,
	chaosScale: 100_000,
	fluidScale: 50_000, fluidHorizon: 2 * time.Hour,
	driverDiv: 100, profileFor: 200 * time.Millisecond,
}

// regroupLimits are the group size limits of the Fig. 6(b) sweep.
var regroupLimits = []int{50, 200, 600}

// fluidProbeProb is the share of pairs fluid-day also carries through the
// DES as latency probes. The real-like trace is heavy-tailed, so the flows
// a sampled pair set carries vary several-fold with the seed; the share is
// kept small enough that the folds, not the probes, set the run's cost.
const fluidProbeProb = 0.0001

// stormShards is the controller's stripe count in packetin-storm: the two
// cores of the box, and the most threads any workload uses.
const stormShards = 2

// pass says how an iteration is observed. The profiled passes run the
// unmodified program, so only the counting pass is visible to a workload.
type pass int

const (
	passPlain  pass = iota // what end-to-end metrics are measured on
	passCounts             // wire metering and every span kept
)

// outcome is what one iteration reports besides its cost.
type outcome struct {
	ops    int // operations attempted, fixed by the workload and the seed
	failed int // operations whose result failed verification
	// det holds everything that must repeat exactly for a seed: the
	// paper-axis metrics, the work counts, and check.* values that exist
	// only to be compared between rounds.
	det map[string]float64
	// fixpoint is the chaos content snapshot, compared byte for byte.
	fixpoint string
	// violations lists failed invariants; empty means correct.
	violations []string
}

// instance is one workload's inputs, built from a seed by set-up.
type instance interface {
	run(p pass) (*outcome, error)
}

type workload struct {
	name  string
	op    string // the unit ops_per_s and the *_per_op metrics are normalised by
	why   string
	setup func(seed uint64, sz sizes) (instance, error)
}

var workloads = []workload{
	{
		name: "replay-lazy", op: "flow",
		why: "traffic-driven LazyCtrl path: edge fast and slow path, G-FIB Bloom probes, L-FIB, Encap rules; the controller sees a fifth of the flows",
		setup: func(seed uint64, sz sizes) (instance, error) {
			src, warm, err := realLike(sz.replayScale, seed, true)
			if err != nil {
				return nil, err
			}
			return &emulation{
				cfg: eval.EmulationConfig{Source: src, Mode: controller.ModeLazy,
					Horizon: sz.replayHorizon, Seed: seed, WarmupIntensity: warm},
				ops:            func(r *eval.EmulationResult) int { return r.FlowsInjected },
				maxUndelivered: 0.05,
			}, nil
		},
	},
	{
		name: "replay-openflow", op: "flow",
		why: "same trace through the OpenFlow baseline: every first packet escalates, so sim, netsim and controller work and bloom and graph do none",
		setup: func(seed uint64, sz sizes) (instance, error) {
			src, _, err := realLike(sz.replayScale, seed, false)
			if err != nil {
				return nil, err
			}
			return &emulation{
				cfg: eval.EmulationConfig{Source: src, Mode: controller.ModeLearning, PerFlowBaseline: true,
					Horizon: sz.replayHorizon, Seed: seed},
				ops:            func(r *eval.EmulationResult) int { return r.FlowsInjected },
				maxUndelivered: 0.05,
			}, nil
		},
	},
	{
		name: "background-day", op: "simulated second",
		why: "few flows over half a day: keep-alives, adverts, reports and dissemination timers dominate, so timer and queue cost shows",
		setup: func(seed uint64, sz sizes) (instance, error) {
			src, warm, err := realLike(sz.backgroundScale, seed, true)
			if err != nil {
				return nil, err
			}
			seconds := int(sz.backgroundHorizon / time.Second)
			return &emulation{
				cfg: eval.EmulationConfig{Source: src, Mode: controller.ModeLazy,
					Horizon: sz.backgroundHorizon, Seed: seed, WarmupIntensity: warm},
				ops:            func(*eval.EmulationResult) int { return seconds },
				maxUndelivered: 0.5,
			}, nil
		},
	},
	{
		name: "packetin-storm", op: "PacketIn",
		why:   "the worst case of section IV-B on the real controller hot path, intake to apply, with no simulator or underlay at all",
		setup: func(seed uint64, sz sizes) (instance, error) { return newStormInstance(seed, sz) },
	},
	{
		name: "regroup", op: "grouping",
		why:   "Fig. 6(b) without its trace generation: IniGroup and IncUpdate over ready Syn-A/B/C intensities isolate grouping and graph",
		setup: func(seed uint64, sz sizes) (instance, error) { return newRegroupInstance(seed, sz) },
	},
	{
		name: "chaos-failover", op: "flow",
		why: "the only faulted run: loss, partition, designated crash, master takeover, fencing, resync and the fixpoint checker",
		setup: func(seed uint64, sz sizes) (instance, error) {
			src, _, err := realLike(sz.chaosScale, seed, false)
			if err != nil {
				return nil, err
			}
			plan := chaos.Cascade(1, 30*time.Minute).Merge(eval.FailoverPlans(40 * time.Minute)[0])
			return &emulation{
				cfg: eval.EmulationConfig{Source: src, Mode: controller.ModeLazy,
					Horizon: plan.End() + time.Minute, Seed: seed, Standby: true, Chaos: plan},
				ops:   func(r *eval.EmulationResult) int { return r.FlowsInjected },
				chaos: true,
			}, nil
		},
	},
	{
		name: "fluid-day", op: "population flow",
		why: "the path that makes Scale 1 reachable: replay folds, aggregate trace cells, periodic-event elision and control-fold credits",
		setup: func(seed uint64, sz sizes) (instance, error) {
			src, warm, err := realLike(sz.fluidScale, seed, true)
			if err != nil {
				return nil, err
			}
			return &emulation{
				cfg: eval.EmulationConfig{Source: src, Mode: controller.ModeLazy,
					Horizon: sz.fluidHorizon, Seed: seed, WarmupIntensity: warm,
					Engine: replay.EngineFluid, SampleProb: fluidProbeProb, AggregatePopulation: true, ControlFold: true},
				ops: func(r *eval.EmulationResult) int { return r.PopulationFlows },
				// A few hundred probes: one Bloom false positive is 0.5 %.
				maxUndelivered: 5,
			}, nil
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// realLike opens the real-like trace at a scale and, for lazy runs, the
// warm-up intensity the way eval.RunFig789 builds it: the first hour of a
// ten times denser generation of the same traffic.
func realLike(scale int, seed uint64, warmup bool) (trace.Stream, *grouping.Intensity, error) {
	cfg := trace.RealLikeConfig(scale, seed)
	src, err := trace.NewStream(cfg)
	if err != nil || !warmup {
		return src, nil, err
	}
	cfg.Scale = max(scale/10, 1)
	cfg.WindowsPerHour = 0
	dense, err := trace.NewStream(cfg)
	if err != nil {
		return nil, nil, err
	}
	return src, trace.StreamIntensity(dense, 0, time.Hour), nil
}

// emulation is a workload that is one eval.RunEmulation call.
type emulation struct {
	cfg eval.EmulationConfig
	ops func(*eval.EmulationResult) int
	// maxUndelivered bounds the modelled first-packet loss, in percent of
	// injected flows. LazyCtrl may drop a first packet by design (a Bloom
	// false positive, an unresolved ARP at cold start), so the fault-free
	// bound is small but not zero.
	maxUndelivered float64
	chaos          bool
}

func (e *emulation) run(p pass) (*outcome, error) {
	cfg := e.cfg
	if p == passCounts {
		cfg.MeterWire = true
		cfg.TraceSample = 1
	}
	res, err := eval.RunEmulation(cfg)
	if err != nil {
		return nil, err
	}
	out := &outcome{ops: e.ops(res), fixpoint: res.Fixpoint}
	out.det = emulationCounts(res, out.ops, p == passCounts)
	if res.Fixpoint != "" {
		// Rounds compare the snapshot itself; the baseline keeps its hash.
		h := fnv.New32a()
		h.Write([]byte(res.Fixpoint))
		out.det["check.fixpoint_fnv32"] = float64(h.Sum32())
	}
	undelivered := out.det["replay.undelivered_pct"]
	switch {
	case out.ops == 0:
		out.violations = append(out.violations, "the run carried no flow")
	case e.chaos:
		out.violations = append(out.violations, chaosViolations(res)...)
	case undelivered > e.maxUndelivered:
		out.violations = append(out.violations,
			fmt.Sprintf("%d of %d flows undelivered (%.3f%% > %.3f%%)",
				res.FlowsInjected-res.FlowsDelivered, res.FlowsInjected, undelivered, e.maxUndelivered))
	}
	if len(out.violations) > 0 {
		out.failed = out.ops
	}
	return out, nil
}

// chaosViolations are the invariants a faulted run must still meet: it
// settles on the fault-free fixpoint, the standby took over, no stale
// state was adopted, and the faults really did bite.
func chaosViolations(res *eval.EmulationResult) []string {
	var v []string
	if !res.Converged {
		v = append(v, fmt.Sprintf("did not converge within the round bound: %v", res.Divergences))
	}
	if res.Takeovers < 1 {
		v = append(v, "no takeover happened")
	}
	if len(res.StaleAdoptions) > 0 {
		v = append(v, fmt.Sprintf("%d stale adoptions: %v", len(res.StaleAdoptions), res.StaleAdoptions))
	}
	d := res.Drops
	if d.InjectedLoss == 0 || d.Partition == 0 || d.DownAtSend+d.DownAtDelivery == 0 {
		v = append(v, fmt.Sprintf("a fault never dropped a message: %+v", d))
	}
	return v
}

// emulationCounts reads the deterministic metrics of one run from what
// eval.EmulationResult and its telemetry registry already export. Wire
// bytes and span counts exist only when the run was metered.
func emulationCounts(res *eval.EmulationResult, ops int, metered bool) map[string]float64 {
	reg := make(map[string]float64)
	for _, s := range res.Metrics.Snapshot() {
		reg[s.Name] = s.Value
	}
	perOp := func(v float64) float64 { return v / float64(ops) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * part / whole
	}
	var takeoverRounds int
	for _, tl := range res.TakeoverTimelines {
		takeoverRounds += eval.TakeoverRounds(tl)
	}
	cs := res.ControllerStats
	det := map[string]float64{
		"metrics.ctrl_req_per_kop":  1000 * perOp(float64(res.Recorder.TotalWorkload())),
		"metrics.cold_setup_ms_p50": ms(res.Recorder.ColdLatencyQuantile(0.5)),
		"metrics.cold_setup_ms_p99": ms(res.Recorder.ColdLatencyQuantile(0.99)),
		"replay.undelivered_pct":    pct(float64(res.FlowsInjected-res.FlowsDelivered), float64(res.FlowsInjected)),
		"chaos.recovery_rounds":     float64(res.RecoveryRounds),
		"edge.degraded_s":           res.DegradedWindow.Seconds(),

		"sim.events_per_op":               perOp(float64(res.SimEvents)),
		"netsim.msgs_per_op":              perOp(reg["lazyctrl_net_delivered_total"]),
		"netsim.drops_per_kop":            1000 * perOp(float64(res.Drops.Total())),
		"edge.packets_per_op":             perOp(reg["lazyctrl_edge_packets_seen_total"]),
		"edge.slowpath_pct":               pct(reg["lazyctrl_edge_packetins_total"], reg["lazyctrl_edge_packets_seen_total"]),
		"edge.encap_per_op":               perOp(reg["lazyctrl_edge_encap_sent_total"]),
		"edge.idle_refreshes_per_op":      perOp(float64(res.IdleRefreshes)),
		"edge.degraded_floods_per_kop":    1000 * perOp(float64(res.DegradedFloods)),
		"controller.packetins_per_op":     perOp(float64(cs.PacketIns)),
		"controller.flowmods_per_op":      perOp(float64(cs.FlowModsSent)),
		"controller.state_reports_per_op": perOp(float64(cs.StateReports)),
		"controller.preload_fulls_per_op": perOp(float64(cs.PreloadFulls)),
		"controller.push_retries":         float64(cs.PushRetries),
		"controller.regroupings":          float64(cs.Regroupings),
		"controller.takeover_rounds":      float64(takeoverRounds),
		"replay.injected_share_pct":       pct(float64(res.FlowsInjected), float64(res.PopulationFlows)),

		"check.flows_delivered": float64(res.FlowsDelivered),
		"check.final_groups":    float64(res.FinalGroups),
	}
	if metered {
		det["openflow.ctrl_msgs_per_op"] = perOp(float64(res.ControlMsgs))
		det["openflow.wire_bytes_per_op"] = perOp(float64(res.ControlBytes))
		det["telemetry.spans_per_op"] = perOp(reg["lazyctrl_trace_spans_completed_total"])
	}
	return det
}

// stormInstance replays one burst through the sharded intake of a warmed
// learning-mode controller whose outputs land in a counting sink.
type stormInstance struct {
	storm *eval.Storm
	runs  int
	// wantOut is what one burst makes a single-stripe controller emit.
	wantOut uint64
}

func newStormInstance(seed uint64, sz sizes) (*stormInstance, error) {
	cfg := eval.StormConfig{Switches: sz.stormSwitches, Hosts: sz.stormHosts,
		Events: sz.stormEvents, Shards: 1, Seed: seed}
	ref, err := eval.NewStorm(cfg)
	if err != nil {
		return nil, err
	}
	warm := ref.MessagesOut() // warming the controller floods, too
	ref.Run()
	cfg.Shards = stormShards
	storm, err := eval.NewStorm(cfg)
	if err != nil {
		return nil, err
	}
	return &stormInstance{storm: storm, runs: sz.stormRuns, wantOut: ref.MessagesOut() - warm}, nil
}

func (s *stormInstance) run(pass) (*outcome, error) {
	out := &outcome{ops: s.runs * len(s.storm.Batch)}
	before := s.storm.Ctrl.Stats()
	for i := 0; i < s.runs; i++ {
		sent := s.storm.MessagesOut()
		s.storm.Run()
		if got := s.storm.MessagesOut() - sent; got != s.wantOut {
			out.failed += len(s.storm.Batch)
			out.violations = append(out.violations,
				fmt.Sprintf("burst %d emitted %d messages, the single-stripe controller emits %d", i, got, s.wantOut))
		}
	}
	after := s.storm.Ctrl.Stats()
	perOp := func(v uint64) float64 { return float64(v) / float64(out.ops) }
	out.det = map[string]float64{
		"controller.packetins_per_op": perOp(after.PacketIns - before.PacketIns),
		"controller.flowmods_per_op":  perOp(after.FlowModsSent - before.FlowModsSent),
		"check.floods":                float64(after.Floods - before.Floods),
	}
	return out, nil
}

// regroupInstance holds the Syn-A/B/C intensity matrices; an iteration is
// regroupSweeps passes of IniGroup + IncUpdate at every size limit.
type regroupInstance struct {
	seed   uint64
	sweeps int
	ms     []*grouping.Intensity
}

func newRegroupInstance(seed uint64, sz sizes) (*regroupInstance, error) {
	r := &regroupInstance{seed: seed, sweeps: sz.regroupSweeps}
	// The three scales are those of eval.Fig6b's synConfigs.
	for _, cfg := range []trace.GeneratorConfig{
		trace.SynAConfig(sz.regroupScale, seed),
		trace.SynBConfig(sz.regroupScale*14/10, seed),
		trace.SynCConfig(sz.regroupScale*19/10, seed),
	} {
		s, err := trace.NewStream(cfg)
		if err != nil {
			return nil, err
		}
		r.ms = append(r.ms, trace.StreamIntensity(s, 0, s.Info().Duration))
	}
	return r, nil
}

func (r *regroupInstance) run(pass) (*outcome, error) {
	out := &outcome{}
	var winter, groups float64
	for sweep := 0; sweep < r.sweeps; sweep++ {
		for ti, m := range r.ms {
			for _, limit := range regroupLimits {
				out.ops++
				sgi, err := grouping.New(grouping.Config{SizeLimit: limit, Seed: r.seed})
				if err != nil {
					return nil, err
				}
				grp, err := sgi.IniGroup(m)
				if err != nil {
					return nil, fmt.Errorf("IniGroup trace %d limit %d: %w", ti, limit, err)
				}
				if _, err := sgi.IncUpdate(grp, m, nil); err != nil {
					return nil, fmt.Errorf("IncUpdate trace %d limit %d: %w", ti, limit, err)
				}
				if err := grp.Validate(limit); err != nil {
					out.failed++
					out.violations = append(out.violations, fmt.Sprintf("trace %d limit %d: %v", ti, limit, err))
				}
				winter += 100 * grouping.Winter(grp, m)
				groups += float64(grp.NumGroups())
			}
		}
	}
	out.det = map[string]float64{
		"grouping.winter_pct": winter / float64(out.ops),
		"check.final_groups":  groups,
	}
	return out, nil
}
