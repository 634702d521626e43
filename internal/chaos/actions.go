package chaos

import (
	"fmt"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
)

// Fault installs a netsim.FaultRule (loss, extra delay/jitter,
// reordering) for the event window. Zero endpoints wildcard.
type Fault struct {
	Rule netsim.FaultRule
}

func (a Fault) Apply(h Harness) func() { return h.Net().AddFault(a.Rule) }

func (a Fault) String() string {
	return fmt.Sprintf("fault S%d<->S%d loss=%.2f delay=%v reorder=%.2f",
		a.Rule.A, a.Rule.B, a.Rule.Loss, a.Rule.ExtraDelay, a.Rule.ReorderProb)
}

// Partition splits the underlay bidirectionally: no message crosses
// between side A and side B while the event is active.
type Partition struct {
	A, B []model.SwitchID
}

func (a Partition) Apply(h Harness) func() { return h.Net().Partition(a.A, a.B) }

func (a Partition) String() string {
	return fmt.Sprintf("partition %v | %v", a.A, a.B)
}

// ControlCut partitions the members of Of's group (resolved at fire
// time) from the controller: keep-alives, reports, pushes, and
// PacketIns all black-hole while active. Peer links stay up, so the
// group keeps disseminating among itself — the scenario the edge
// degraded mode (flood fallback, serve-stale-while-resyncing) exists
// for.
type ControlCut struct {
	Of model.SwitchID
}

func (a ControlCut) Apply(h Harness) func() {
	members := h.GroupPeers(a.Of)
	if len(members) == 0 {
		members = []model.SwitchID{a.Of}
	}
	return h.Net().Partition(members, []model.SwitchID{model.ControllerNode})
}

func (a ControlCut) String() string {
	return fmt.Sprintf("control-link cut for S%d's group", a.Of)
}

// LinkDown hard-fails one link for the event window.
type LinkDown struct {
	A, B model.SwitchID
}

func (a LinkDown) Apply(h Harness) func() {
	h.Net().FailLink(a.A, a.B)
	return func() { h.Net().HealLink(a.A, a.B) }
}

func (a LinkDown) String() string { return fmt.Sprintf("link S%d<->S%d down", a.A, a.B) }

// Crash fails an edge switch; the undo restarts it cold (volatile
// state wiped, L-FIB epoch advanced, hosts re-attached).
type Crash struct {
	Switch model.SwitchID
}

func (a Crash) Apply(h Harness) func() {
	h.Crash(a.Switch)
	return func() { h.Restart(a.Switch) }
}

func (a Crash) String() string { return fmt.Sprintf("crash S%d", a.Switch) }

// CrashDesignated crashes whichever switch is the designated of Of's
// group at fire time — the "designated dies mid-regroup" move, where
// the victim cannot be named when the plan is built because failover
// may already have rotated the role.
type CrashDesignated struct {
	Of model.SwitchID
}

func (a CrashDesignated) Apply(h Harness) func() {
	d := h.Designated(a.Of)
	if d == model.NoSwitch {
		d = a.Of
	}
	h.Crash(d)
	return func() { h.Restart(d) }
}

func (a CrashDesignated) String() string {
	return fmt.Sprintf("crash designated of S%d's group", a.Of)
}

// ControllerBlackout takes the central controller off the underlay for
// the event window.
type ControllerBlackout struct{}

func (ControllerBlackout) Apply(h Harness) func() {
	h.CrashController()
	return func() { h.RestartController() }
}

func (ControllerBlackout) String() string { return "controller blackout" }

// ControllerFailover fails the replica currently holding the master
// role (resolved at fire time) off the underlay: its timers keep
// running but every message to or from it drops, the standby's watch
// heartbeats go unanswered, and after three silent intervals the
// standby takes over under a bumped cluster generation. The undo heals
// the old master, which returns believing it still rules — the fabric
// fences its stale pushes and its corrective demotion is the
// generation-handoff invariant under test. No-op without a standby.
type ControllerFailover struct{}

func (ControllerFailover) Apply(h Harness) func() {
	reps := h.Replicas()
	if len(reps) < 2 {
		return nil
	}
	master := reps[0]
	h.Net().FailNode(master)
	return func() { h.Net().HealNode(master) }
}

func (ControllerFailover) String() string { return "controller failover (fail master replica)" }

// SplitBrain isolates the master replica from everything — standby and
// fabric alike. The standby takes over; the old master keeps "ruling" a
// world that cannot hear it. On heal the stale master's first contact
// (peer heartbeat, journal record, or fenced push) carries the higher
// generation back and demotes it. No-op without a standby.
type SplitBrain struct{}

func (SplitBrain) Apply(h Harness) func() {
	reps := h.Replicas()
	if len(reps) < 2 {
		return nil
	}
	others := append([]model.SwitchID(nil), reps[1:]...)
	others = append(others, h.Switches()...)
	return h.Net().Partition(reps[:1], others)
}

func (SplitBrain) String() string { return "split-brain (isolate master replica)" }

// StaleMasterStorm partitions the master from its standby only: both
// replicas keep full fabric connectivity, the standby declares the
// master dead and takes over, and two masters push concurrently. Edges
// must follow the higher generation, fence every push of the stale one,
// and the corrective RoleAnnounce echo — not the (cut) replica link —
// is what demotes the loser. No-op without a standby.
type StaleMasterStorm struct{}

func (StaleMasterStorm) Apply(h Harness) func() {
	reps := h.Replicas()
	if len(reps) < 2 {
		return nil
	}
	return h.Net().Partition(reps[:1], reps[1:])
}

func (StaleMasterStorm) String() string { return "stale-master storm (cut replica link)" }

// Func is an escape hatch for bespoke scenario steps. Run may return
// nil when there is nothing to undo.
type Func struct {
	Name string
	Run  func(h Harness) (undo func())
}

func (a Func) Apply(h Harness) func() { return a.Run(h) }

func (a Func) String() string { return a.Name }

// GroupLoss installs correlated burst loss on every peer link of Of's
// group (membership resolved at fire time) without touching control
// links — the in-group loss storm of the cascade scenario.
type GroupLoss struct {
	Of   model.SwitchID
	Loss float64
}

func (a GroupLoss) Apply(h Harness) func() {
	members := h.GroupPeers(a.Of)
	var undos []func()
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			undos = append(undos, h.Net().AddFault(netsim.FaultRule{
				A: members[i], B: members[j], Loss: a.Loss,
			}))
		}
	}
	return func() {
		for _, u := range undos {
			u()
		}
	}
}

func (a GroupLoss) String() string {
	return fmt.Sprintf("burst loss %.2f across S%d's group", a.Loss, a.Of)
}
