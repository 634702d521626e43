package lazyctrl

import (
	"time"

	"lazyctrl/internal/chaos"
)

// Chaos returns the fault-injection view of the data center, for
// building and scheduling chaos.Plan scenarios directly
// (docs/robustness.md): crash = FailSwitch, restart = the §III-E3
// RecoverSwitch reboot-and-resync path, exactly as inside
// eval.RunEmulation — both run on the same rig.
func (dc *DataCenter) Chaos() chaos.Harness { return dc.rig }

// RunScenario schedules a chaos plan and runs the simulation until
// every fault has been undone, plus settle time for the control plane
// to recover. Event times are absolute virtual times; a plan built
// with offsets relative to dc.Now() behaves as expected.
func (dc *DataCenter) RunScenario(p *chaos.Plan, settle time.Duration) {
	p.Schedule(dc.rig)
	if end := p.End(); end > dc.Now() {
		dc.Run(end - dc.Now())
	}
	dc.Run(settle)
}

// CheckConvergence runs the chaos convergence-invariant checker over
// the data center's current state (docs/robustness.md#convergence-invariants)
// and returns the violations, one human-readable line each. Empty
// means the control plane sits at the fault-free fixpoint.
func (dc *DataCenter) CheckConvergence() []string { return dc.rig.World().Diverged() }
