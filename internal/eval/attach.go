package eval

import (
	"time"

	"lazyctrl/internal/chaos"
	"lazyctrl/internal/edge"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
)

// The attachments: everything RunEmulation hangs off the rig beyond the
// bare world — wire metering, the control fold's oracles, the flight
// recorders, and the chaos schedule, probe, and settle loop. Each is a
// no-op unless its EmulationConfig switch is set.

// meter accumulates the encoded wire bytes of one control-plane
// message, copies times over. Real sends (the underlay's meter hook)
// and folded credits (the fold hooks) feed this one accumulator, so
// folded and full runs are comparable byte for byte.
func (e *emulation) meter(msg openflow.Message, copies uint64) {
	data, err := openflow.Encode(msg, 0)
	if err != nil {
		return
	}
	e.res.ControlMsgs += copies
	e.res.ControlBytes += copies * uint64(len(data))
}

func (e *emulation) attachWireMeter() {
	if !e.c.MeterWire {
		return
	}
	e.rig.Net().Meter = func(from, to model.SwitchID, msg netsim.Message) {
		if om, ok := msg.(openflow.Message); ok {
			e.meter(om, 1)
		}
	}
}

// foldHooks returns the control fold's harness-side oracles, which go
// into both config templates before the rig is built. Elision is only
// sound while every sent control message is guaranteed delivered, hence
// the global gate on the underlay's fault-free predicate; the cross-node
// oracles ask the neighbour switch or the controller directly.
func (e *emulation) foldHooks() *edge.FoldHooks {
	h := &edge.FoldHooks{
		Gate: func() bool { return !e.rig.Net().Faulted() },
		BeaconCurrent: func(designated, member model.SwitchID, version uint64) bool {
			d := e.rig.Edge(designated)
			return d != nil && d.MemberVersionCurrent(member, version)
		},
		PeerNeedsLiveKA: func(neighbor, self model.SwitchID) bool {
			n := e.rig.Edge(neighbor)
			return n == nil || n.NeedsLiveKAFrom(self)
		},
		PeerKACreditedThrough: func(neighbor model.SwitchID) time.Duration {
			if n := e.rig.Edge(neighbor); n != nil {
				return n.KACreditedThrough()
			}
			return 0
		},
		CtrlKACreditedThrough: func() time.Duration { return e.rig.Primary().KACreditedThrough() },
		CreditStateReport:     func(at time.Duration) { e.rig.Primary().CreditFoldedStateReport(at) },
	}
	if e.c.MeterWire {
		h.Meter = func(from, to model.SwitchID, msg openflow.Message, copies uint64) { e.meter(msg, copies) }
	}
	return h
}

// attachControlFold re-materializes every folded timer on any underlay
// fault change, so fault scenarios see real rounds throughout.
func (e *emulation) attachControlFold() {
	if e.c.ControlFold {
		e.rig.Net().OnFaultChange = e.wakeFolds
	}
}

// wakeFolds wakes the folded timers in deterministic switch order.
func (e *emulation) wakeFolds() {
	e.rig.Primary().WakeFoldTasks()
	for _, id := range e.rig.Switches() {
		e.rig.Edge(id).WakeFoldTasks()
	}
}

func (e *emulation) attachFlights() {
	if e.c.FlightDepth > 0 {
		e.flights = installFlightRecorders(e.rig.Net(), e.rig.Now, e.c.FlightDepth)
	}
}

// attachChaos schedules the fault plan against the live stack, builds
// the convergence checker, and arms the no-stale-adoption probe for the
// fault window, one sample per dissemination round.
func (e *emulation) attachChaos() {
	plan := e.c.Chaos
	if plan == nil {
		return
	}
	e.world = e.rig.World()
	e.world.Flight = func(sw model.SwitchID) []string {
		return e.flights[sw].Tail() // nil-map lookup and nil Tail are both fine
	}
	plan.Schedule(e.rig)
	if len(plan.Events) == 0 {
		return
	}
	s, end := e.rig.Sim(), plan.End()
	var probe func()
	probe = func() {
		e.res.StaleAdoptions = append(e.res.StaleAdoptions, e.world.Probe()...)
		if e.rig.Now() < end {
			s.After(advertiseInterval, probe)
		}
	}
	s.After(advertiseInterval, probe)
}

// settleChaos is the convergence check: run past the last fault's undo,
// then settle in dissemination/report rounds until every view matches
// the fault-free fixpoint or the documented round bound is exhausted
// (docs/robustness.md).
func (e *emulation) settleChaos() {
	if e.world == nil {
		return
	}
	s := e.rig.Sim()
	if end := e.c.Chaos.End(); end > e.c.Horizon {
		s.RunUntil(sim.Time(end))
	}
	round := max(advertiseInterval, e.c.ReportInterval)
	e.res.RecoveryRounds, e.res.Converged, e.res.Divergences =
		e.world.Settle(chaos.DefaultRecoveryRoundBound, s.RunFor, round)
	e.res.Fixpoint = e.world.Snapshot()
}
