package eval

import (
	"fmt"
	"strings"
	"time"

	"lazyctrl/internal/chaos"
	"lazyctrl/internal/controller"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/trace"
)

// ChaosDiffResult is a faulted run checked against a fault-free run of
// the same seed (cmd/experiments -run chaos,failover; the same comparisons
// TestChaosCascadeDifferential and TestChaosFailoverDifferential pin in
// CI).
type ChaosDiffResult struct {
	// Faulted ran the plan.
	Faulted *EmulationResult
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
// A fault-free run that does not converge, or that takes over, leaves
// nothing to compare against and is an error.
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
	if !base.Converged || base.Takeovers != 0 {
		return nil, fmt.Errorf("eval: fault-free run converged=%v with %d takeovers:\n%s",
			base.Converged, base.Takeovers, strings.Join(base.Divergences, "\n"))
	}
	faulted, err := run(plan)
	if err != nil {
		return nil, err
	}
	return &ChaosDiffResult{Faulted: faulted, FixpointMatch: faulted.Fixpoint == base.Fixpoint}, nil
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

// DisseminationRounds converts a span into dissemination rounds (the
// advertise cadence), rounded up. A phase closes with a control-link
// round trip (a push and its ack, at most twice the default control
// latency with full jitter), so that much past a round boundary counts
// no further round; a span within it is zero rounds.
func DisseminationRounds(d time.Duration) int {
	l := netsim.DefaultLatencies()
	d -= 2 * time.Duration(float64(l.Control)*(1+l.JitterFrac))
	if d <= 0 {
		return 0
	}
	return int((d + advertiseInterval - 1) / advertiseInterval)
}

// TakeoverRounds converts a takeover timeline into dissemination
// rounds, detection through the last re-pushed config ack; zero while
// the re-push is still open.
func TakeoverRounds(t controller.TakeoverTimeline) int {
	if t.RepushedAt == 0 {
		return 0
	}
	return DisseminationRounds(t.RepushedAt - t.DetectedAt)
}
