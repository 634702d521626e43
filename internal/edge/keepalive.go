package edge

import (
	"lazyctrl/internal/failover"
	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// sendKeepAlives emits the wheel heartbeats: one to each ring neighbor
// (the Sn→Sn−1 and Sn→Sn+1 streams of Table I).
func (s *Switch) sendKeepAlives() {
	if !s.haveGroup {
		return
	}
	s.kaSeq++
	ka := &openflow.KeepAlive{From: s.cfg.ID, Seq: s.kaSeq}
	s.ringNeighbors(func(n model.SwitchID) { s.env.Send(n, ka) })
}

// handleKeepAlive records heartbeats from ring neighbors and from the
// controller. Controller heartbeats were fenced by admit — a demoted
// master's beacon must not rearm freshness — and are acknowledged to
// the replica that sent them so it can detect control-link loss, but
// only the followed master's beacon counts as controller liveness. A
// designated switch that evicted a member on peer evidence treats the
// member's resumed heartbeat as the false-alarm signal and re-sends it
// its group view: handleGroupConfig resets the member's advertisement
// state, so its next advertisement is a full snapshot that rebuilds
// the dropped aggregation and filter state.
func (s *Switch) handleKeepAlive(m *openflow.KeepAlive) {
	if model.IsControllerAddr(m.From) {
		if m.From == s.master {
			s.ctrlKASeen = true
			s.ctrlLastKA = s.env.Now()
			s.exitDegraded()
		}
		s.env.Send(m.From, &openflow.KeepAlive{From: s.cfg.ID, Seq: m.Seq})
		return
	}
	if m.From == s.group.RingPrev || m.From == s.group.RingNext {
		s.ring[m.From] = ringNeighbor{lastFrom: s.env.Now()}
	}
	if s.role != nil && s.role.evicted[m.From] {
		s.resyncMember(m.From)
	}
}

// resyncMember re-sends a member its group view (with its ring
// neighbors recomputed), which resets the member's advertisement state
// so its next advertisement is a full bootstrap snapshot. Used by the
// false-alarm unwind (resumed keep-alive after a peer-evidence
// eviction) and by the idle-beacon mismatch path — designated switch
// only.
func (s *Switch) resyncMember(member model.SwitchID) {
	if member == s.cfg.ID {
		return
	}
	delete(s.role.evicted, member)
	cfg := s.group
	cfg.RingPrev, cfg.RingNext = failover.Neighbors(failover.BuildWheel(cfg.Members), member)
	s.env.Send(member, &cfg)
}

// checkKeepAlives detects silent ring neighbors and reports them to the
// controller (§III-E1). The direction encodes which Table I stream went
// missing: a silent successor means its Sn→Sn−1 stream stopped (we are
// its ring predecessor); a silent predecessor means its Sn→Sn+1 stream
// stopped.
func (s *Switch) checkKeepAlives() {
	if !s.haveGroup || s.group.KeepAliveInterval <= 0 {
		return
	}
	now := s.env.Now()
	deadline := keepAliveMisses * s.group.KeepAliveInterval
	check := func(neighbor model.SwitchID, dir openflow.LossDirection) {
		if neighbor == model.NoSwitch || neighbor == s.cfg.ID {
			return
		}
		n, seen := s.ring[neighbor]
		if n.reported {
			return
		}
		if !seen {
			// Grace period: neighbor has never spoken; give it a full
			// deadline from group configuration.
			s.ring[neighbor] = ringNeighbor{lastFrom: now}
			return
		}
		last := n.lastFrom
		// A neighbor whose heartbeat rounds were folded is implicitly
		// heard through the credited boundary: rounds are only credited
		// while the underlay was fault-free, so genuine silence (which
		// begins with a fault) is never masked.
		if h := s.cfg.Fold; h != nil && h.PeerKACreditedThrough != nil {
			if ct := h.PeerKACreditedThrough(neighbor); ct > last {
				last = ct
			}
		}
		if now-last >= deadline {
			n.reported = true
			s.ring[neighbor] = n
			s.sendCtrl(&openflow.FailureReport{
				Observer:  s.cfg.ID,
				Suspect:   neighbor,
				Direction: dir,
				MissedSeq: s.kaSeq,
			})
			s.evictSuspect(neighbor)
		}
	}
	check(s.group.RingNext, openflow.LossUp)
	check(s.group.RingPrev, openflow.LossDown)
}

// evictSuspect invalidates local state pointing at a group member this
// switch just reported lost, without waiting for the controller's
// diagnosis window to close: the preloaded G-FIB filter is dropped (so
// new flows toward the suspect's hosts escalate to the controller
// instead of encapping into a black hole), and a designated switch
// also drops the suspect from its aggregation and delta-tracking state
// so dissemination and reports stop carrying a dead member's L-FIB —
// and broadcasts a filter tombstone so non-neighbor members (who never
// see the missed heartbeats) evict too, instead of holding the dead
// member's filter until the next membership change. A false alarm
// self-heals: the suspect's resumed keep-alive re-sends it its group
// view, its bootstrap advertisement repopulates the aggregation state,
// and the version gate re-disseminates its filter to everyone.
func (s *Switch) evictSuspect(suspect model.SwitchID) {
	if s.gfib.RemoveFilter(suspect) {
		s.stats.PeerFiltersEvicted++
	}
	if s.role != nil {
		s.dropMemberAggregation(suspect)
		s.broadcastFilterRemoval(suspect)
	}
}

// dropMemberAggregation forgets a member's aggregated L-FIB snapshot
// and delta-tracking state (designated switch only) and marks it for
// the false-alarm unwind.
func (s *Switch) dropMemberAggregation(suspect model.SwitchID) {
	delete(s.role.members, suspect)
	s.role.evicted[suspect] = true
	// Pending evictions keep dissemination/report rounds real.
	s.role.wake()
}

// broadcastFilterRemoval ships the G-FIB tombstone for a lost member
// to every other group member.
func (s *Switch) broadcastFilterRemoval(suspect model.SwitchID) {
	tomb := &openflow.GFIBDelta{
		Group:    s.group.Group,
		Removals: []model.SwitchID{suspect},
		Version:  s.group.Version,
	}
	for _, member := range s.group.Members {
		if member == s.cfg.ID || member == suspect {
			continue
		}
		s.env.Send(member, tomb)
	}
}
