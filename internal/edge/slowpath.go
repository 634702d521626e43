package edge

import (
	"slices"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/telemetry"
)

// HandleMessage implements netsim.Node: the Ctrl-IF and peer/state link
// endpoints of the switch. Nothing reaches a handler unadmitted (see
// admit).
func (s *Switch) HandleMessage(from model.SwitchID, msg netsim.Message) {
	if !s.admit(from, msg) {
		return
	}
	switch m := msg.(type) {
	case *model.Packet:
		if m.Encapsulated() {
			s.handleOverlay(m)
		} else {
			s.handleFlood(m)
		}
	case *openflow.FlowMod:
		s.handleFlowMod(m)
		s.emitApplySpan(m.Span)
	case *openflow.PacketOut:
		s.clearEscalation(&m.Packet)
		pkt := m.Packet
		s.applyActions(m.Actions, &pkt)
		s.emitApplySpan(m.Span)
	case *openflow.GroupConfig:
		s.handleGroupConfig(m)
	case *openflow.StateReport:
		s.handleMemberReport(from, m)
	case *openflow.GFIBUpdate:
		s.handleGFIBUpdate(m)
	case *openflow.GFIBDelta:
		s.handleGFIBDelta(from, m)
	case *openflow.GFIBNack:
		s.handleGFIBNack(m)
	case *openflow.RoleAnnounce:
		s.adoptGeneration(m.Generation, m.From)
	case *openflow.ARPRelay:
		s.handleARPRelay(m)
	case *openflow.KeepAlive:
		s.handleKeepAlive(m)
	case *openflow.Batch:
		// A regroup round's coalesced push, fenced whole by admit before
		// anything applies — a stale master's push must not partially
		// land — then applied in order, so the GroupConfig that resets
		// G-FIB/aggregation state lands before the G-FIB preloads that
		// repopulate it.
		for _, sub := range m.Msgs {
			if _, nested := sub.(*openflow.Batch); nested {
				continue // decode rejects nesting; ignore hand-built ones
			}
			s.HandleMessage(from, sub)
		}
	}
}

// emitApplySpan closes a sampled escalation's trace with the edge-side
// apply instant: the leaf span of the PacketIn taxonomy (ingress →
// batch → controller → apply — docs/observability.md).
func (s *Switch) emitApplySpan(ctx telemetry.SpanContext) {
	if tr := s.cfg.Tracer; tr != nil && ctx.Sampled() {
		now := s.env.Now()
		tr.Emit(ctx, "pktin.apply", now, now, telemetry.Attr{Key: "sw", Val: int64(s.cfg.ID)})
	}
}

// handleFlowMod installs a controller rule. The controller only ever
// adds exact-destination Encap rules (§IV-B); every other command, and
// the priority and hard timeout the message carries, are ignored.
func (s *Switch) handleFlowMod(m *openflow.FlowMod) {
	if m.Command != openflow.FlowAdd {
		return
	}
	s.flows.install(m.Match, &flowRule{
		actions:     append([]openflow.Action(nil), m.Actions...),
		idleTimeout: m.IdleTimeout,
		lastHit:     s.env.Now(),
	})
}

// handleGroupConfig adopts a (re)grouping decision from the controller
// (§III-D1): group membership, designated switch, wheel neighbors, and
// timing. The G-FIB is cleared and rebuilt by the next dissemination
// round; the switch immediately advertises its L-FIB so the designated
// switch can rebuild quickly (the "preload" window is covered by
// controller-installed rules).
func (s *Switch) handleGroupConfig(m *openflow.GroupConfig) {
	// Settle folded rounds under the old group view before anything is
	// mutated: credit callbacks read the state the fold was proven
	// against.
	s.WakeFoldTasks()
	membersChanged := !slices.Equal(s.group.Members, m.Members) || !s.haveGroup
	ringChanged := s.group.RingPrev != m.RingPrev || s.group.RingNext != m.RingNext
	s.group = *m
	s.haveGroup = true
	if membersChanged || ringChanged {
		s.ring = newRing()
	}
	// Only a membership change invalidates G-FIB state, and even then
	// only selectively: filters of peers that stayed in the group are
	// kept — they are version-stamped, usually fresher than the
	// controller's C-LIB preload (which lags by up to a report
	// interval), and the stale-version guard in handleGFIBUpdate
	// protects them from being downgraded by it — while filters of
	// departed peers are dropped (those hosts are inter-group now and
	// must go through the controller). Regroupings that leave this
	// group intact (the common case) keep everything warm — the
	// Appendix-B "preload for seamless grouping update" effect.
	if membersChanged {
		for i := s.gfib.Len() - 1; i >= 0; i-- {
			if peer, _ := s.gfib.At(i); !s.isMember(peer) {
				s.gfib.RemoveFilter(peer)
			}
		}
	}
	// The designated role follows the config: losing it drops its state;
	// gaining it, or keeping it across a membership change, starts it
	// fresh, rebuilt from the members' bootstrap advertisements. A
	// holder whose membership stayed only restarts delta tracking (peers
	// may have cleared their G-FIBs, and the controller re-tags C-LIB
	// groups); receivers that lost state recover through NACK/resync.
	switch {
	case m.Designated != s.cfg.ID:
		s.role = nil
	case s.role == nil || membersChanged:
		s.role = newDesignatedRole()
	default:
		s.role.restartDeltaTracking()
	}
	s.restartGroupTimers()
	// Acknowledge the push: the controller supervises configs with a
	// retry timer, and this is what cancels it.
	s.sendCtrl(&openflow.ConfigAck{From: s.cfg.ID, Version: m.Version})
	// Immediate advertisement bootstraps the new group's state.
	s.adv = advertState{}
	s.advertise()
	if s.role != nil {
		// First dissemination shortly after members advertise.
		netsim.Post(s.env, s.cfg.AdvertiseInterval/2+time.Millisecond, func() {
			s.disseminateGFIB()
			s.reportToController()
		})
	}
}

func (s *Switch) restartGroupTimers() {
	s.cancelTimers()
	s.advTask = s.registerPeriodic(s.cfg.AdvertiseInterval, s.advertise,
		s.advertiseQuiet, s.advertiseCredit)
	if s.group.KeepAliveInterval > 0 && len(s.group.Members) > 1 {
		s.kaSendTask = s.registerPeriodic(s.group.KeepAliveInterval, s.sendKeepAlives,
			s.kaSendQuiet, s.kaSendCredit)
		s.kaCheckTask = s.registerPeriodic(s.group.KeepAliveInterval, s.checkKeepAlives,
			s.kaCheckQuiet, func(int) {})
	}
	if r := s.role; r != nil {
		r.dissemTask = s.registerPeriodic(s.cfg.GFIBInterval, s.disseminateGFIB,
			s.dissemQuiet, s.dissemCredit)
		r.reportTask = s.registerPeriodic(s.cfg.ReportInterval, s.reportToController,
			s.reportQuiet, s.reportCredit)
	}
}

// advertise implements the state-advertisement module: push the local
// L-FIB changes and window traffic statistics to the designated switch
// when something moved. The L-FIB leg is incremental — only bindings
// changed since the last advertisement travel — falling back to a full
// snapshot on the first advertisement after (re)configuration, after a
// removal (increments cannot express those), and every
// refreshEveryRounds-th changed advertisement (anti-entropy against a
// lost increment). A round where only pair statistics moved carries no
// L-FIB payload at all.
func (s *Switch) advertise() {
	if !s.haveGroup {
		return
	}
	changed := s.lfib.Version() != s.adv.lastVersion
	beacon := false
	if !changed && len(s.pairFlows) == 0 {
		if s.adv.lastVersion == 0 {
			return // nothing ever advertised, nothing to repair
		}
		// Idle anti-entropy: adv.sinceFull only guards *changed*
		// advertisements, so a bootstrap full advertisement lost on a
		// faulty peer link would never be repaired — the member goes
		// quiet once lfib.Version() == adv.lastVersion and the
		// designated switch holds nothing for it. Every
		// refreshEveryRounds-th idle interval sends a version beacon: a
		// zero-entry increment asserting the current L-FIB version. A
		// designated switch whose aggregation is current no-ops; one
		// that lost the member's state resyncs it (group-view re-send →
		// full bootstrap advertisement). The common idle case costs a
		// version comparison, not a snapshot.
		s.adv.idleRounds++
		if s.adv.idleRounds < refreshEveryRounds {
			return
		}
		beacon = true
		s.stats.IdleRefreshes++
	}
	s.adv.idleRounds = 0
	report := &openflow.StateReport{
		Group:   s.group.Group,
		Pairs:   s.drainPairStats(),
		Version: s.group.Version,
	}
	if beacon {
		report.LFIBs = []openflow.LFIBUpdate{{
			Origin:  s.cfg.ID,
			Version: s.lfib.Version(),
		}}
	}
	if changed {
		entries, full := s.lfib.DrainChanges()
		s.adv.sinceFull++
		if s.adv.lastVersion == 0 || s.adv.sinceFull >= refreshEveryRounds {
			entries, full = s.lfib.WireEntries(), true
		}
		if full {
			s.adv.sinceFull = 0
		}
		report.LFIBs = []openflow.LFIBUpdate{{
			Origin:  s.cfg.ID,
			Full:    full,
			Entries: entries,
			Version: s.lfib.Version(),
		}}
		s.adv.lastVersion = s.lfib.Version()
	}
	if s.role != nil {
		s.handleMemberReport(s.cfg.ID, report)
		return
	}
	if s.group.Designated != model.NoSwitch {
		s.env.Send(s.group.Designated, report)
	}
}

func (s *Switch) drainPairStats() []openflow.PairStat {
	if len(s.pairFlows) == 0 {
		return nil
	}
	out := make([]openflow.PairStat, 0, len(s.pairFlows))
	for other, n := range s.pairFlows {
		out = append(out, openflow.PairStat{A: s.cfg.ID, B: other, NewFlows: n})
	}
	clear(s.pairFlows)
	return out
}

// handleMemberReport records a member's advertisement (designated
// switch only): full snapshots replace the member's aggregated state,
// increments merge into it, and the same increments queue for the next
// controller report so the state link forwards them instead of
// re-snapshotting. admit has checked that every leg is the sender's
// own; a leg is taken only while the sender is in the group view (a
// group that kept its ID across a regroup still hears beacons its
// departed members sent under the old view, and resyncing one would
// hand it this group's view), while its pair stats still count.
func (s *Switch) handleMemberReport(from model.SwitchID, m *openflow.StateReport) {
	r := s.role
	if r == nil || m.Group != s.group.Group {
		return
	}
	for i := range m.LFIBs {
		u := &m.LFIBs[i]
		if !s.isMember(from) {
			continue
		}
		rec := r.members[u.Origin]
		switch {
		case u.Full:
			if rec == nil {
				rec = &memberRecord{}
				r.members[u.Origin] = rec
			}
			rec.snapshot, rec.needFull, rec.pending = u.Entries, true, nil
			delete(r.evicted, u.Origin)
		case len(u.Entries) == 0:
			// Idle version beacon: the member asserts its current
			// L-FIB version without shipping entries. Current
			// aggregation → no-op; anything else (no snapshot held,
			// stale version) means advertisements were lost — resync
			// the member so its next advertisement is a full
			// bootstrap snapshot.
			if rec == nil || rec.version != u.Version {
				s.resyncMember(u.Origin)
			}
			continue
		case rec == nil:
			// An increment without a base snapshot (the member was
			// evicted on peer evidence, or its bootstrap full
			// advertisement was lost) must not be adopted as the
			// member's whole state: version-stamping an incomplete
			// entry set would poison everything built from it. The
			// member stays absent until its next full advertisement
			// (keep-alive resumption or member-side anti-entropy
			// triggers one).
			continue
		default:
			rec.snapshot = mergeWireEntries(rec.snapshot, u.Entries)
			rec.pending = append(rec.pending, u.Entries...)
		}
		rec.version = u.Version
	}
	for _, p := range m.Pairs {
		r.pairs[model.MakeSwitchPair(p.A, p.B)] += p.NewFlows
	}
	// A member spoke: aggregated versions or pair stats may have moved.
	r.wake()
}

// mergeWireEntries merges an increment into a MAC-sorted snapshot,
// replacing bindings for MACs the increment re-announces. Both inputs
// are sorted by MAC (LFIB.DrainChanges guarantees it); the result is a
// fresh slice, never aliasing the old snapshot.
func mergeWireEntries(old, inc []openflow.LFIBEntry) []openflow.LFIBEntry {
	out := make([]openflow.LFIBEntry, 0, len(old)+len(inc))
	i, j := 0, 0
	for i < len(old) && j < len(inc) {
		a, b := old[i].MAC.Uint64(), inc[j].MAC.Uint64()
		switch {
		case a < b:
			out = append(out, old[i])
			i++
		case a > b:
			out = append(out, inc[j])
			j++
		default:
			out = append(out, inc[j])
			i++
			j++
		}
	}
	out = append(out, old[i:]...)
	out = append(out, inc[j:]...)
	return out
}

// refreshOwnSnapshot folds the designated switch's own L-FIB into the
// aggregation state, re-materializing the wire snapshot only when the
// L-FIB actually changed.
func (s *Switch) refreshOwnSnapshot() {
	v := s.lfib.Version()
	rec := s.role.members[s.cfg.ID]
	if rec == nil {
		rec = &memberRecord{}
		s.role.members[s.cfg.ID] = rec
	} else if rec.version == v {
		return
	}
	rec.snapshot, rec.version = s.lfib.WireEntries(), v
}

// refreshEveryRounds is the staleness-bounding cadence of the two
// designated-switch fan-out paths. On the controller-report path every
// Nth round ignores the reported-version gate and resends full state
// (anti-entropy). On the G-FIB dissemination path the Nth round adds a
// version beacon — a zero-word delta asserting each unchanged filter's
// version — and receivers that do not hold a version NACK for exactly
// the filters they miss, which the sender then resends in full. A lost
// delta is therefore repaired within N rounds at the cost of a version
// comparison, not a full re-push.
const refreshEveryRounds = 10

// disseminateGFIB distributes the group's Bloom filters to every member
// over peer links (multiple unicasts — no native multicast assumed,
// §III-B3). Distribution is versioned and incremental: a member's
// filter is re-examined only when its advertised L-FIB version moved,
// and a changed filter ships as a word-level delta against the last
// disseminated version whenever that is smaller than the full filter —
// a single host arrival costs O(k) changed words instead of the whole
// array. Full filters and deltas for one round coalesce into at most
// one message per receiver. A round with no changed filters sends
// nothing, except every refreshEveryRounds-th round, which sends the
// version beacon that bounds staleness after a lost delta (see
// refreshEveryRounds).
func (s *Switch) disseminateGFIB() {
	r := s.role
	if r == nil {
		return
	}
	// Own L-FIB participates too.
	s.refreshOwnSnapshot()

	s.gfibRound++
	beacon := s.gfibRound%refreshEveryRounds == 0
	update := &openflow.GFIBUpdate{Group: s.group.Group, Version: s.group.Version}
	delta := &openflow.GFIBDelta{Group: s.group.Group, Version: s.group.Version}
	for _, member := range s.group.Members {
		rec := r.members[member]
		if rec == nil {
			continue
		}
		v := rec.version
		if !r.dissemStale(rec) {
			if beacon {
				// Version beacon: assert the current version of a
				// filter that did not change. Holders no-op; stale or
				// empty receivers NACK and get a full resync.
				delta.Deltas = append(delta.Deltas, openflow.GFIBFilterDelta{Switch: member, BaseVersion: v, TargetVersion: v})
			}
			continue
		}
		// Every member is assumed to hold what the last round sent.
		held, built := rec.filter.Version()
		rec.filter.Rebuild(rec.snapshot, v)
		if built && !s.cfg.GFIBFullPush {
			if d, ok := rec.filter.Delta(member, held); ok {
				s.stats.GFIBDeltasSent++
				delta.Deltas = append(delta.Deltas, d)
				continue
			}
		}
		s.stats.GFIBFullsSent++
		update.Filters = append(update.Filters, rec.filter.Full(member))
	}
	r.restart = false
	var msgs []openflow.Message
	if len(update.Filters) > 0 {
		msgs = append(msgs, update)
	}
	if len(delta.Deltas) > 0 {
		msgs = append(msgs, delta)
	}
	if len(msgs) == 0 {
		return
	}
	var out netsim.Message = msgs[0]
	if len(msgs) > 1 {
		out = &openflow.Batch{Msgs: msgs}
	}
	// A round names each member at most once, so a round of one item
	// tells the member it names nothing (a switch never installs its own
	// filter) and is not sent to it.
	sole := model.NoSwitch
	if len(update.Filters) == 1 && len(delta.Deltas) == 0 {
		sole = update.Filters[0].Switch
	} else if len(update.Filters) == 0 && len(delta.Deltas) == 1 {
		sole = delta.Deltas[0].Switch
	}
	for _, member := range s.group.Members {
		if member == s.cfg.ID {
			// Apply locally without a network hop; sub-messages in order.
			for _, m := range msgs {
				s.HandleMessage(s.cfg.ID, m)
			}
			continue
		}
		if member == sole {
			continue
		}
		s.env.Send(member, out)
	}
}

// reportToController implements the state-reporting module of the
// designated switch: the aggregated L-FIB changes and pair statistics
// go to the controller over the state link.
func (s *Switch) reportToController() {
	r := s.role
	if r == nil {
		return
	}
	s.refreshOwnSnapshot()
	s.ctrlRound++
	fullRound := s.ctrlRound%refreshEveryRounds == 0
	report := &openflow.StateReport{Group: s.group.Group, Version: s.group.Version}
	// The report itself goes out every interval (it is the state link's
	// liveness and carries the pair statistics), but an L-FIB leg is
	// attached only for members whose version moved since the last
	// report — and as the queued increments where possible, falling
	// back to the full snapshot when the member itself advertised one
	// (bootstrap, removals) or when no increment trail exists. Every
	// refreshEveryRounds-th report is full for every member, bounding
	// staleness after a report lost on a failing control link.
	for _, member := range s.group.Members {
		rec := r.members[member]
		if rec == nil || !fullRound && !r.reportStale(rec) {
			continue
		}
		u := openflow.LFIBUpdate{Origin: member, Full: true, Entries: rec.snapshot, Version: rec.version}
		if !fullRound && !rec.needFull && len(rec.pending) > 0 {
			u.Full, u.Entries = false, rec.pending
		}
		rec.pending, rec.needFull, rec.reported = nil, false, rec.version+1
		report.LFIBs = append(report.LFIBs, u)
	}
	for pair, n := range r.pairs {
		report.Pairs = append(report.Pairs, openflow.PairStat{A: pair.A, B: pair.B, NewFlows: n})
	}
	clear(r.pairs)
	s.sendCtrl(report)
}

// handleGFIBUpdate rebuilds the G-FIB from disseminated full filters
// (FIB maintenance module). The filter for this switch itself is
// skipped — the L-FIB answers local questions. Each installed filter
// adopts the origin version it was built at, seeding delta tracking.
func (s *Switch) handleGFIBUpdate(m *openflow.GFIBUpdate) {
	if !s.haveGroup || m.Group != s.group.Group {
		return
	}
	for _, f := range m.Filters {
		if f.Switch == s.cfg.ID || !s.isMember(f.Switch) {
			continue
		}
		// A full filter older than what this switch already holds is a
		// late arrival from the slower of the two senders (controller
		// preloads lag designated dissemination when the state link
		// lags the peer links); installing it would regress the G-FIB
		// to a pre-churn view and open a false-negative window.
		if held, ok := s.gfib.PeerVersion(f.Switch); ok && held > f.Version {
			continue
		}
		// Ignore undecodable filters; the next round repairs them.
		_ = s.gfib.SetFilterBytes(f.Switch, f.Filter, f.Version)
	}
}

// handleGFIBDelta patches the G-FIB with word-level filter deltas. An
// item whose base version this switch does not hold (missed round,
// cleared G-FIB, reboot) is left untouched and NACKed back to the
// sender, which answers with full filters for exactly the stale peers
// — the explicit resync path that replaces periodic anti-entropy on
// the dissemination path.
func (s *Switch) handleGFIBDelta(from model.SwitchID, m *openflow.GFIBDelta) {
	if !s.haveGroup || m.Group != s.group.Group {
		return
	}
	// Tombstones first: a removal is unconditional (no base version,
	// never NACKed). A designated switch also drops the member's
	// aggregation state — a controller-issued removal may be its first
	// notice when the dead member is not among its wheel neighbors.
	for _, peer := range m.Removals {
		if peer == s.cfg.ID {
			continue
		}
		s.gfib.RemoveFilter(peer)
		if s.role != nil {
			s.dropMemberAggregation(peer)
		}
	}
	var stale []model.SwitchID
	for _, d := range m.Deltas {
		if d.Switch == s.cfg.ID {
			continue
		}
		if err := s.gfib.ApplyDelta(d.Switch, d.BaseVersion, d.TargetVersion, d.Words); err != nil {
			// Base mismatch or a malformed patch: either way this
			// filter needs the full state.
			stale = append(stale, d.Switch)
			continue
		}
		s.stats.GFIBDeltasApplied++
	}
	if len(stale) == 0 {
		return
	}
	s.stats.GFIBNacksSent++
	nack := &openflow.GFIBNack{Group: s.group.Group, Origin: s.cfg.ID, Peers: stale}
	if from == s.cfg.ID {
		s.handleGFIBNack(nack)
		return
	}
	s.env.Send(from, nack)
}

// handleGFIBNack re-sends full filters for the peers a receiver could
// not patch. Only the group's designated switch holds the disseminated
// filter cache; NACKs against controller preloads are answered by the
// controller itself. admit takes a NACK only from a member naming
// itself as origin; it is answered to that origin, never with the
// origin's own filter.
func (s *Switch) handleGFIBNack(m *openflow.GFIBNack) {
	if s.role == nil || m.Group != s.group.Group {
		return
	}
	update := &openflow.GFIBUpdate{Group: s.group.Group, Version: s.group.Version}
	for _, peer := range m.Peers {
		rec := s.role.members[peer]
		if rec == nil || peer == m.Origin {
			continue
		}
		if _, built := rec.filter.Version(); !built {
			continue // nothing disseminated for this peer yet
		}
		update.Filters = append(update.Filters, rec.filter.Full(peer))
	}
	if len(update.Filters) == 0 {
		return
	}
	s.stats.GFIBResyncs += uint64(len(update.Filters))
	if m.Origin == s.cfg.ID {
		s.handleGFIBUpdate(update)
		return
	}
	s.env.Send(m.Origin, update)
}

// isMember reports whether a switch is in this switch's group view.
// Only members get a G-FIB filter, which is what bounds the table at
// group size − 1 whatever a message names.
func (s *Switch) isMember(id model.SwitchID) bool {
	return slices.Contains(s.group.Members, id)
}

// handleARPRelay processes a controller-relayed ARP query (§III-D3
// level iii). The designated switch fans the query out to group members;
// every switch owning the target answers the controller directly with
// its binding (standing in for the host's ARP reply, which the
// controller observes).
func (s *Switch) handleARPRelay(m *openflow.ARPRelay) {
	if s.answerARP(&m.Packet) {
		return
	}
	if s.role != nil {
		for _, member := range s.group.Members {
			if member != s.cfg.ID {
				s.env.Send(member, m)
			}
		}
	}
}

// answerARP responds to an ARP query if a local host owns the target.
func (s *Switch) answerARP(p *model.Packet) bool {
	e := s.lfib.LookupIP(p.ARPTarget)
	if e == nil {
		return false
	}
	s.sendCtrl(&openflow.LFIBUpdate{
		Origin:  s.cfg.ID,
		Entries: []openflow.LFIBEntry{{MAC: e.MAC, IP: e.IP, VLAN: e.VLAN}},
		Version: s.lfib.Version(),
	})
	return true
}
