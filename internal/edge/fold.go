package edge

import (
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// FoldHooks are the harness-side oracles of the control-plane fold.
// Elision of a switch's periodic rounds is only sound with global
// knowledge the switch itself lacks — whether the underlay is
// fault-free, whether a peer's bookkeeping still needs a real
// heartbeat, how far a peer's folded heartbeats were credited — so the
// emulation harness, which owns every node, supplies these oracles.
// Every field is optional; a nil oracle disables the folds that need
// it (the conservative direction: rounds stay real).
type FoldHooks struct {
	// Gate reports whether folding is currently allowed at all. The
	// harness wires it to the underlay's fault-free predicate
	// (netsim.Network.Faulted): while no fault is active, every sent
	// heartbeat is delivered, which is what makes quiescent rounds
	// provable no-ops.
	Gate func() bool
	// BeaconCurrent reports whether the designated switch's
	// aggregation holds exactly this member's L-FIB version — the
	// O(1) check that makes an idle-advertisement version beacon a
	// guaranteed receiver no-op, foldable without sending. A mismatch
	// keeps beacon rounds real so the resync repair path fires.
	BeaconCurrent func(designated, member model.SwitchID, version uint64) bool
	// PeerNeedsLiveKA reports whether neighbor's failure bookkeeping
	// needs a real keep-alive from self: it has self reported as a
	// suspect (the resumed heartbeat is the false-alarm unwind) or
	// evicted from its aggregation. While false, a keep-alive's only
	// receiver effect is freshening a timestamp — creditable.
	PeerNeedsLiveKA func(neighbor, self model.SwitchID) bool
	// PeerKACreditedThrough returns the round boundary through which
	// neighbor's keep-alive sends were settled analytically. Liveness
	// checks treat the neighbor as heard up to this time: rounds are
	// only credited while the fault-free gate held, so those
	// heartbeats would have been delivered.
	PeerKACreditedThrough func(neighbor model.SwitchID) time.Duration
	// CtrlKACreditedThrough is the same oracle for the controller's
	// keep-alive broadcast, read by the degraded-mode check.
	CtrlKACreditedThrough func() time.Duration
	// Meter credits the wire bytes of messages a folded round would
	// have sent: msg is what one round puts on the (from, to) channel,
	// copies how many folded rounds are being settled. It feeds the
	// same accounting as netsim's send-path meter, so folded and full
	// runs report identical control-channel bytes.
	Meter func(from, to model.SwitchID, msg openflow.Message, copies uint64)
	// CreditStateReport credits one folded empty designated-switch
	// report at its round time: the controller-side request accounting
	// (workload buckets, report counters) stays bucket-exact.
	CreditStateReport func(at time.Duration)
}

// foldCap is the quiet answer for "indefinitely foldable" tasks; the
// simulator clamps to its own span cap anyway.
const foldCap = 1 << 20

// foldGateOpen reports whether the global fold gate allows elision.
func (s *Switch) foldGateOpen() bool {
	h := s.cfg.Fold
	return h != nil && h.Gate != nil && h.Gate()
}

// wakeTask re-materializes a fold task if one is registered.
func wakeTask(t netsim.ElidableTask) {
	if t != nil {
		t.Wake()
	}
}

// noteLFIBChanged re-materializes every task whose quiet proof depends
// on the local L-FIB version: the next advertisement has content, and
// a designated switch's own snapshot is stale for dissemination and
// reporting. Cheap no-op when nothing is folded.
func (s *Switch) noteLFIBChanged() {
	wakeTask(s.advTask)
	s.role.wake()
}

// WakeFoldTasks re-materializes all of the switch's folded timers:
// any folded round whose boundary has passed is credited under the
// current state, everything after runs as real events. The harness
// calls it on every underlay fault change (passed rounds were still
// fault-free); handleGroupConfig calls it before a reconfiguration
// mutates the state the credit callbacks read.
func (s *Switch) WakeFoldTasks() {
	wakeTask(s.advTask)
	wakeTask(s.kaSendTask)
	wakeTask(s.kaCheckTask)
	s.role.wake()
}

// MemberVersionCurrent reports whether this (designated) switch's
// aggregation holds exactly the given member L-FIB version — the
// oracle behind FoldHooks.BeaconCurrent.
func (s *Switch) MemberVersionCurrent(member model.SwitchID, version uint64) bool {
	if s.role == nil {
		return false
	}
	rec := s.role.members[member]
	return rec != nil && rec.version == version
}

// NeedsLiveKAFrom reports whether this switch's failure bookkeeping
// needs a real keep-alive from peer — the oracle behind
// FoldHooks.PeerNeedsLiveKA.
func (s *Switch) NeedsLiveKAFrom(peer model.SwitchID) bool {
	return s.ring[peer].reported || (s.role != nil && s.role.evicted[peer])
}

// KACreditedThrough returns the boundary through which this switch's
// keep-alive sends were settled analytically (zero when never folded)
// — the oracle behind FoldHooks.PeerKACreditedThrough.
func (s *Switch) KACreditedThrough() time.Duration {
	if s.kaSendTask == nil {
		return 0
	}
	return s.kaSendTask.CreditedThrough()
}

// ringNeighbors yields the valid wheel-heartbeat targets.
func (s *Switch) ringNeighbors(yield func(model.SwitchID)) {
	if n := s.group.RingPrev; n != model.NoSwitch && n != s.cfg.ID {
		yield(n)
	}
	if n := s.group.RingNext; n != model.NoSwitch && n != s.cfg.ID {
		yield(n)
	}
}

// advertiseQuiet proves upcoming advertise rounds no-ops: nothing to
// say (L-FIB unchanged, no pair stats), and either nothing was ever
// advertised (pure early return) or the designated switch's
// aggregation is current, making even the every-Nth idle version
// beacon a receiver no-op. Without the beacon proof, folding stops one
// round short of the next beacon so the repair path stays live.
func (s *Switch) advertiseQuiet() int {
	if !s.foldGateOpen() {
		return 0
	}
	if !s.haveGroup {
		// Nothing happens until a group config arrives, and that
		// rebuilds the timers.
		return foldCap
	}
	if s.lfib.Version() != s.adv.lastVersion || len(s.pairFlows) > 0 {
		return 0
	}
	if s.adv.lastVersion == 0 {
		return foldCap // advertise() returns before doing anything
	}
	h := s.cfg.Fold
	if s.group.Designated != model.NoSwitch &&
		h.BeaconCurrent != nil && h.BeaconCurrent(s.group.Designated, s.cfg.ID, s.lfib.Version()) {
		return foldCap
	}
	return refreshEveryRounds - s.adv.idleRounds - 1
}

// advertiseCredit settles folded idle rounds: the idle-round counter
// advances, and every refreshEveryRounds-th credited round was a
// version beacon whose stats and wire bytes are credited (its receiver
// effect was a proven no-op).
func (s *Switch) advertiseCredit(rounds int) {
	if !s.haveGroup || s.adv.lastVersion == 0 {
		return // the folded rounds were pure early returns
	}
	beacons := (s.adv.idleRounds + rounds) / refreshEveryRounds
	s.adv.idleRounds = (s.adv.idleRounds + rounds) % refreshEveryRounds
	if beacons == 0 {
		return
	}
	s.stats.IdleRefreshes += uint64(beacons)
	if s.role != nil || s.group.Designated == model.NoSwitch {
		return // local hand-off, no wire traffic
	}
	if h := s.cfg.Fold; h != nil && h.Meter != nil {
		beacon := &openflow.StateReport{
			Group:   s.group.Group,
			Version: s.group.Version,
			LFIBs: []openflow.LFIBUpdate{{
				Origin:  s.cfg.ID,
				Version: s.lfib.Version(),
			}},
		}
		h.Meter(s.cfg.ID, s.group.Designated, beacon, uint64(beacons))
	}
}

// kaSendQuiet proves upcoming heartbeat rounds creditable: the
// underlay is fault-free (delivery guaranteed) and no ring neighbor's
// bookkeeping needs a real heartbeat from this switch.
func (s *Switch) kaSendQuiet() int {
	if !s.foldGateOpen() || !s.haveGroup {
		return 0
	}
	h := s.cfg.Fold
	if h.PeerNeedsLiveKA == nil {
		return 0
	}
	quiet := foldCap
	s.ringNeighbors(func(n model.SwitchID) {
		if h.PeerNeedsLiveKA(n, s.cfg.ID) {
			quiet = 0
		}
	})
	return quiet
}

// kaSendCredit settles folded heartbeat rounds: the sequence counter
// advances and the wire bytes are credited. Receivers' freshness is
// recovered lazily through PeerKACreditedThrough, so no cross-node
// state is touched here.
func (s *Switch) kaSendCredit(rounds int) {
	if !s.haveGroup {
		return
	}
	s.kaSeq += uint64(rounds)
	h := s.cfg.Fold
	if h == nil || h.Meter == nil {
		return
	}
	ka := &openflow.KeepAlive{From: s.cfg.ID, Seq: s.kaSeq}
	s.ringNeighbors(func(n model.SwitchID) {
		h.Meter(s.cfg.ID, n, ka, uint64(rounds))
	})
}

// kaCheckQuiet proves upcoming liveness-check rounds no-ops: while the
// underlay is fault-free no neighbor can go silent, none is currently
// reported, and every neighbor has an initialized baseline (the
// grace-period branch writes state, so it must have run). The next
// real check recovers freshness via PeerKACreditedThrough.
func (s *Switch) kaCheckQuiet() int {
	if !s.foldGateOpen() || !s.haveGroup || s.group.KeepAliveInterval <= 0 {
		return 0
	}
	quiet := foldCap
	s.ringNeighbors(func(n model.SwitchID) {
		if rec, seen := s.ring[n]; !seen || rec.reported {
			quiet = 0
		}
	})
	return quiet
}

// membersChangedSince is the non-mutating form of changedMembers' gate:
// it reports whether any member's aggregated snapshot moved past what
// the path's sent-mark recorded.
func (s *Switch) membersChangedSince(path fanout) bool {
	for _, member := range s.group.Members {
		rec := s.role.members[member]
		if rec == nil {
			continue
		}
		if sent := rec.sent[path]; !sent.set || sent.version != rec.version {
			return true
		}
	}
	return false
}

// fanoutSettled reports whether a fan-out path has nothing to send: the
// fold gate is open, the role is held, no eviction is pending, the own
// snapshot is current, and no member moved past the path's sent-mark.
func (s *Switch) fanoutSettled(path fanout) bool {
	if !s.foldGateOpen() || s.role == nil || len(s.role.evicted) > 0 {
		return false
	}
	own := s.role.members[s.cfg.ID]
	return own != nil && own.version == s.lfib.Version() && !s.membersChangedSince(path)
}

// dissemQuiet proves upcoming dissemination rounds no-ops: no member
// filter changed and no eviction is pending, so a non-beacon round
// sends nothing. Beacon rounds always run real — they are the
// NACK/resync repair trigger, and receiver staleness is exactly what
// this switch cannot prove away.
func (s *Switch) dissemQuiet() int {
	if !s.fanoutSettled(toGroup) {
		return 0
	}
	return refreshEveryRounds - int(s.gfibRound%refreshEveryRounds) - 1
}

// dissemCredit settles folded dissemination rounds; all were proven
// empty non-beacon rounds, so only the round counter advances.
func (s *Switch) dissemCredit(rounds int) {
	s.gfibRound += uint64(rounds)
}

// reportQuiet proves upcoming controller-report rounds creditable: no
// aggregated state or pair statistics are pending, so each round sends
// the constant empty report (the state link's liveness signal), whose
// controller-side effect is a per-round counter. Anti-entropy full
// rounds stay real.
func (s *Switch) reportQuiet() int {
	if !s.fanoutSettled(toCtrl) || s.cfg.Fold.CreditStateReport == nil || s.ctrlRelay || len(s.role.pairs) > 0 {
		return 0
	}
	for _, rec := range s.role.members {
		if len(rec.pending) > 0 {
			return 0
		}
	}
	return refreshEveryRounds - int(s.ctrlRound%refreshEveryRounds) - 1
}

// reportCredit settles folded empty-report rounds bucket-exactly: each
// round's report is credited at its own boundary time, and the round's
// wire bytes once per round.
func (s *Switch) reportCredit(rounds int) {
	r := s.role
	if r == nil || r.reportTask == nil {
		return
	}
	s.ctrlRound += uint64(rounds)
	h := s.cfg.Fold
	ct := r.reportTask.CreditedThrough()
	if h.CreditStateReport != nil {
		for i := rounds - 1; i >= 0; i-- {
			h.CreditStateReport(ct - time.Duration(i)*s.cfg.ReportInterval)
		}
	}
	if h.Meter != nil {
		empty := &openflow.StateReport{Group: s.group.Group, Version: s.group.Version}
		h.Meter(s.cfg.ID, model.ControllerNode, empty, uint64(rounds))
	}
}
