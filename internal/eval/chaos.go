package eval

import (
	"time"

	"lazyctrl/internal/chaos"
	"lazyctrl/internal/controller"
	"lazyctrl/internal/trace"
)

// ChaosDiffResult pairs a fault-free run with a faulted run of the same
// seed (cmd/experiments -run chaos,failover; the same comparisons
// TestChaosCascadeDifferential and TestChaosFailoverDifferential pin in
// CI).
type ChaosDiffResult struct {
	// Base ran fault-free — with the standby attached when the
	// differential is replicated; Faulted ran the plan.
	Base, Faulted *EmulationResult
	// FixpointMatch reports whether the faulted run settled on the
	// byte-identical content fixpoint of the fault-free run (the
	// snapshot excludes master identity and generation, so runs that
	// end under different masters still compare).
	FixpointMatch bool
}

// ChaosDifferential runs one fault-scenario differential on the small
// synthetic trace: a fault-free run and a run under plan with identical
// flow schedules and static grouping, so the fixpoints are comparable
// byte for byte. standby selects the replicated stack (the FailoverPlans
// scenarios need it; the chaos.Cascade acceptance scenario runs without).
func ChaosDifferential(seed uint64, standby bool, plan *chaos.Plan) (*ChaosDiffResult, error) {
	tr, err := trace.Generate(trace.SmallConfig("small", seed))
	if err != nil {
		return nil, err
	}
	run := func(p *chaos.Plan) (*EmulationResult, error) {
		return RunEmulation(EmulationConfig{
			Source:         tr.Stream(0),
			Mode:           controller.ModeLazy,
			GroupSizeLimit: 6,
			Horizon:        time.Hour,
			BucketWidth:    30 * time.Minute,
			Seed:           seed,
			Standby:        standby,
			Chaos:          p,
		})
	}
	base, err := run(&chaos.Plan{Name: "fault-free"})
	if err != nil {
		return nil, err
	}
	faulted, err := run(plan)
	if err != nil {
		return nil, err
	}
	return &ChaosDiffResult{
		Base: base, Faulted: faulted,
		FixpointMatch: faulted.Fixpoint == base.Fixpoint,
	}, nil
}

// FailoverPlans returns the three replicated-controller acceptance
// scenarios, sized against the emulation cadences (1 min replica
// keep-alive, 3-miss takeover): each fault opens at, the standby
// takes over ~3-4 keep-alive rounds later, and the old master heals
// with enough horizon left to be fenced, demoted, and re-synced. Each
// plan overlaps a switch crash one keep-alive round before the fault,
// so the takeover lands mid-recovery and the new master inherits an
// open diagnosis.
func FailoverPlans(at time.Duration) []*chaos.Plan {
	crash := func() *chaos.Plan {
		return (&chaos.Plan{}).Add(at-time.Minute, 6*time.Minute, chaos.Crash{Switch: 1})
	}
	return []*chaos.Plan{
		chaos.ControllerFailoverPlan(at, 12*time.Minute).Merge(crash()),
		chaos.SplitBrainPlan(at, 12*time.Minute).Merge(crash()),
		chaos.StaleMasterStormPlan(at, 12*time.Minute).Merge(crash()),
	}
}

// TakeoverRounds converts a takeover timeline into dissemination
// rounds (the advertise cadence), detection through the last re-pushed
// config ack; zero while the re-push is still open.
func TakeoverRounds(t controller.TakeoverTimeline) int {
	if t.RepushedAt == 0 {
		return 0
	}
	return int((t.RepushedAt - t.DetectedAt + advertiseInterval - 1) / advertiseInterval)
}
