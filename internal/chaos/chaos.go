// Package chaos is the deterministic fault-injection layer for the
// LazyCtrl control plane: a scripted scenario engine that drives the
// netsim underlay's fault hooks (per-link loss, delay, jitter,
// reordering, bidirectional partitions, node crash/restart) on a
// virtual-time schedule, plus a convergence-invariant checker that
// asserts the distributed state — every edge G-FIB and L-FIB view, the
// controller's C-LIB, and per-peer version state — returns to the
// fault-free fixpoint after the faults end (docs/robustness.md).
//
// Everything is seed-reproducible: a Plan is pure data, actions draw no
// randomness of their own (the Randomized builder expands a seed into a
// concrete Plan up front), and the underlay's loss draws come from the
// simulator's PCG stream. Two runs with the same seed, trace, and plan
// execute the same faults at the same virtual instants.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
)

// Harness is the world-manipulation surface a Plan executes against.
// internal/rig.Rig is the one implementation — the eval emulation and
// the top-level DataCenter both run on it — and the interface stays so
// this package need not import the rig (which builds chaos.World) and
// the plan tests can drive a fake.
type Harness interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// After schedules fn after d on the harness's simulator.
	After(d time.Duration, fn func())
	// Net exposes the underlay for link-level fault hooks.
	Net() *netsim.Network
	// Switches lists every edge switch, sorted by ID.
	Switches() []model.SwitchID
	// GroupPeers returns the members of sw's current group (including
	// sw itself), or nil if sw is ungrouped.
	GroupPeers(sw model.SwitchID) []model.SwitchID
	// Designated resolves the designated switch of sw's group as sw
	// currently understands it (model.NoSwitch if unknown).
	Designated(sw model.SwitchID) model.SwitchID
	// Crash fails an edge switch in place: the node drops off the
	// underlay but keeps its volatile state until Restart reboots it.
	Crash(sw model.SwitchID)
	// Restart heals and reboots a crashed switch: volatile tables are
	// wiped, the L-FIB incarnation epoch advances, hosts re-attach,
	// and the controller is told to re-push the group view.
	Restart(sw model.SwitchID)
	// CrashController blacks out the central controller: every message
	// to or from it is dropped until RestartController.
	CrashController()
	// RestartController brings the controller back onto the underlay.
	RestartController()
	// Replicas lists the controller replica addresses, the replica
	// currently holding the master role first (a single-controller
	// stack returns just the controller address). Resolved at call
	// time: after a failover the order changes, so a second
	// ControllerFailover kills the new master, not the old address.
	Replicas() []model.SwitchID
}

// Action is one reversible world mutation. Apply installs the fault
// and returns an undo that removes it (nil when there is nothing to
// reverse). Actions must be deterministic: any choice that depends on
// live state (e.g. "the current designated switch") is resolved at
// Apply time from the Harness, never from a private random source.
type Action interface {
	Apply(h Harness) (undo func())
	String() string
}

// Event places an Action on the plan timeline. At is the virtual time
// the action applies; For is how long it stays applied before the undo
// runs (0 = permanent for actions with no natural end, e.g. Func).
type Event struct {
	At     time.Duration
	For    time.Duration
	Action Action
}

// Plan is a scripted fault scenario: a named, ordered set of timed
// events. Plans are pure data — build them up front, then Schedule
// against a Harness.
type Plan struct {
	Name   string
	Events []Event
}

// Add appends an event and returns the plan for chaining.
func (p *Plan) Add(at, dur time.Duration, a Action) *Plan {
	p.Events = append(p.Events, Event{At: at, For: dur, Action: a})
	return p
}

// Merge appends every event of the given plans onto p.
func (p *Plan) Merge(plans ...*Plan) *Plan {
	for _, q := range plans {
		p.Events = append(p.Events, q.Events...)
	}
	return p
}

// End returns the virtual time the last fault is undone — the earliest
// moment the convergence clock may start.
func (p *Plan) End() time.Duration {
	var end time.Duration
	for _, ev := range p.Events {
		if t := ev.At + ev.For; t > end {
			end = t
		}
	}
	return end
}

// Schedule arms every event on the harness's simulator. Event times
// are absolute virtual times; events already in the past apply
// immediately. Undo callbacks are scheduled when the fault fires, so a
// crash of a switch resolved at fire time restarts that same switch.
func (p *Plan) Schedule(h Harness) {
	now := h.Now()
	for i := range p.Events {
		ev := p.Events[i]
		delay := ev.At - now
		if delay < 0 {
			delay = 0
		}
		h.After(delay, func() {
			undo := ev.Action.Apply(h)
			if undo != nil && ev.For > 0 {
				h.After(ev.For, undo)
			}
		})
	}
}

// Describe renders the timeline for logs and docs.
func (p *Plan) Describe() string {
	evs := make([]Event, len(p.Events))
	copy(evs, p.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	s := fmt.Sprintf("plan %q (%d events, ends %v):\n", p.Name, len(evs), p.End())
	for _, ev := range evs {
		if ev.For > 0 {
			s += fmt.Sprintf("  %8v +%v  %s\n", ev.At, ev.For, ev.Action)
		} else {
			s += fmt.Sprintf("  %8v       %s\n", ev.At, ev.Action)
		}
	}
	return s
}
