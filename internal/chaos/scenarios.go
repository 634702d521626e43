package chaos

import (
	"fmt"
	"math/rand/v2"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
)

// Scenario builders: each returns a pure-data Plan for one of the
// failure cascades the robustness harness exercises
// (docs/robustness.md §Scenarios). All times are absolute virtual
// times on the emulation clock.

// ControllerOutage blacks out the controller for dur starting at.
// Edges ride it out in degraded mode: existing G-FIB/L-FIB state keeps
// forwarding, no-match packets flood within the group, and the
// degradation window is metered.
func ControllerOutage(at, dur time.Duration) *Plan {
	p := &Plan{Name: "controller-outage"}
	return p.Add(at, dur, ControllerBlackout{})
}

// Cascade is the acceptance scenario: burst loss across seed's group's
// peer links, a control-link partition cutting the whole group off the
// controller, and a designated-switch crash landing mid-regroup while
// both are still active. The windows are sized against the emulation
// cadences (1 min keep-alive, 3-miss detector): the designated stays
// down long enough for the wheel to diagnose it, and its failure
// reports race the control-link partition. Convergence back to the
// fault-free fixpoint after End() is the tentpole invariant.
func Cascade(seed model.SwitchID, at time.Duration) *Plan {
	p := &Plan{Name: fmt.Sprintf("cascade-S%d", seed)}
	// Burst loss on every peer link of the group for 8 min.
	p.Add(at, 8*time.Minute, GroupLoss{Of: seed, Loss: 0.4})
	// 2 min in: the whole group loses its control links for 5 min —
	// failure reports and config pushes black-hole.
	p.Add(at+2*time.Minute, 5*time.Minute, ControlCut{Of: seed})
	// 3 min in — mid-regroup, inside both windows — the designated
	// dies for 6 min, restarting after everything else has healed.
	p.Add(at+3*time.Minute, 6*time.Minute, CrashDesignated{Of: seed})
	return p
}

// ControllerFailoverPlan kills the master replica at for dur: the
// standby takes over, rules alone, and the healed old master must be
// fenced, demoted, and re-synced. A switch crash one keep-alive round
// before the kill puts the failover mid-recovery — the new master
// inherits an open diagnosis.
func ControllerFailoverPlan(at, dur time.Duration) *Plan {
	p := &Plan{Name: "controller-failover"}
	return p.Add(at, dur, ControllerFailover{})
}

// SplitBrainPlan isolates the master replica entirely for dur.
func SplitBrainPlan(at, dur time.Duration) *Plan {
	p := &Plan{Name: "split-brain"}
	return p.Add(at, dur, SplitBrain{})
}

// StaleMasterStormPlan cuts only the replica link for dur, producing
// dueling masters until the fabric's fence demotes the stale one.
func StaleMasterStormPlan(at, dur time.Duration) *Plan {
	p := &Plan{Name: "stale-master-storm"}
	return p.Add(at, dur, StaleMasterStorm{})
}

// Randomized expands a seed into a concrete fault schedule over the
// given switches: loss windows, delay/jitter windows, control-link
// flaps, switch crash-restarts (never overlapping per switch), at
// most one controller blackout, and the replicated-controller moves
// (failover, split-brain, stale-master storm — no-ops on a stack
// without a standby). The schedule spans [start, start+span] and is a
// pure function of its arguments — same seed, same plan.
func Randomized(seed uint64, switches []model.SwitchID, start, span time.Duration, events int) *Plan {
	p := &Plan{Name: fmt.Sprintf("randomized-%d", seed)}
	if len(switches) == 0 || events <= 0 || span <= 0 {
		return p
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	pick := func() model.SwitchID { return switches[rng.IntN(len(switches))] }
	busyUntil := make(map[model.SwitchID]time.Duration)
	usedBlackout := false
	for i := 0; i < events; i++ {
		at := start + time.Duration(rng.Int64N(int64(span)))
		dur := 10*time.Second + time.Duration(rng.Int64N(int64(50*time.Second)))
		switch rng.IntN(9) {
		case 0: // loss window on one link
			p.Add(at, dur, Fault{Rule: netsim.FaultRule{A: pick(), B: pick(), Loss: 0.3 + 0.7*rng.Float64()}})
		case 1: // wildcard loss around one switch
			p.Add(at, dur, Fault{Rule: netsim.FaultRule{A: pick(), B: model.NoSwitch, Loss: 0.2 + 0.5*rng.Float64()}})
		case 2: // delay + jitter + reordering window
			p.Add(at, dur, Fault{Rule: netsim.FaultRule{
				A: pick(), B: model.NoSwitch,
				ExtraDelay:   time.Duration(rng.Int64N(int64(20 * time.Millisecond))),
				ExtraJitter:  time.Duration(rng.Int64N(int64(10 * time.Millisecond))),
				ReorderProb:  0.3 * rng.Float64(),
				ReorderDelay: 5 * time.Millisecond,
			}})
		case 3: // control-link flap
			p.Add(at, dur, LinkDown{A: pick(), B: model.ControllerNode})
		case 4: // crash-restart, never overlapping per switch
			sw := pick()
			if at < busyUntil[sw] {
				continue
			}
			busyUntil[sw] = at + dur + time.Second
			p.Add(at, dur, Crash{Switch: sw})
		case 5: // at most one controller blackout per plan
			if usedBlackout {
				continue
			}
			usedBlackout = true
			p.Add(at, dur/2, ControllerBlackout{})
		case 6: // master replica failover (no-op without a standby)
			p.Add(at, dur, ControllerFailover{})
		case 7: // full master isolation
			p.Add(at, dur, SplitBrain{})
		case 8: // replica-link cut: dueling masters
			p.Add(at, dur, StaleMasterStorm{})
		}
	}
	return p
}
