package edge

import (
	"sort"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// This file implements the edge side of replicated-controller failover
// (see docs/robustness.md): every controller-issued push carries the
// sender's cluster generation, the switch tracks the highest generation
// it has observed and which controller address owns it, and anything
// fenced behind that high-water mark is rejected — a partitioned-then-
// healed stale master cannot roll the fabric back. On a master change
// the switch also re-flushes no-match escalations the dead primary
// never answered, so the flows behind them do not stay black-holed
// until a host retry.

// Master returns the controller address this switch currently follows
// (the target of escalations, reports, and acks).
func (s *Switch) Master() model.SwitchID { return s.master }

// CtrlGeneration returns the highest cluster generation this switch
// has observed (0 until a generation-stamped controller has spoken).
func (s *Switch) CtrlGeneration() uint64 { return s.ctrlGen }

// adoptGeneration folds a generation announced by a controller address
// into the switch: generations only move up, and a higher one makes
// that address the master. Only admitted controller messages reach it
// (admit, fenced). The keep-alive baseline restarts (the new master
// gets a full deadline before the switch degrades, exactly the grace a
// fresh neighbor gets), an open degraded window closes (a controller
// spoke), and on an actual master change the pending-escalation
// residue re-flushes.
func (s *Switch) adoptGeneration(gen uint64, from model.SwitchID) {
	if gen <= s.ctrlGen {
		return
	}
	s.ctrlGen = gen
	changed := s.master != from
	s.master = from
	s.ctrlKASeen = true
	s.ctrlLastKA = s.env.Now()
	s.exitDegraded()
	if changed {
		s.reflushEscalations()
	}
}

// fenced applies the generation fence to one message, as part of its
// admission row: generation 0 is unfenced (wheel and designated-switch
// traffic carries none), the current generation passes, and a higher
// one passes only from a controller address, which adopts it first.
// Anything else is rejected: a lower stamp, or a higher one from a
// switch, which has no standing to raise the generation (a view the
// designated switch re-sends carries at most the generation it
// adopted). A fenced controller sender gets a corrective RoleAnnounce
// naming the master this switch follows, so a stale master partitioned
// from its peer replica still learns of its demotion from the fabric
// itself.
func (s *Switch) fenced(gen uint64, from model.SwitchID) bool {
	if gen == 0 {
		return false
	}
	if gen == s.ctrlGen || gen > s.ctrlGen && model.IsControllerAddr(from) {
		s.adoptGeneration(gen, from)
		return false
	}
	s.stats.StaleGenRejected++
	if model.IsControllerAddr(from) {
		s.env.Send(from, &openflow.RoleAnnounce{From: s.master, Generation: s.ctrlGen})
	}
	return true
}

// escKey identifies an escalated flow by its endpoint MAC pair.
type escKey struct{ src, dst uint64 }

// escRecord is one pending (unanswered) no-match escalation.
type escRecord struct {
	pkt model.Packet
	at  time.Duration
}

// escalationTTL bounds how long an unanswered escalation stays
// pending: duplicates for the same flow are suppressed inside the
// window, and a master change re-flushes only the unexpired residue.
// Sized to cover the takeover detection window (the controller's
// takeoverMisses heartbeat intervals) with slack.
const escalationTTL = 10 * time.Second

// noteEscalation records a no-match escalation about to be sent and
// reports whether it duplicates one already pending — the controller
// holds the original, and re-sending would double its work (and,
// across a failover, race the old master's answer with the new
// master's). Only called with TrackEscalations.
func (s *Switch) noteEscalation(p *model.Packet) bool {
	key := escKey{p.SrcMAC.Uint64(), p.DstMAC.Uint64()}
	now := s.env.Now()
	if rec, ok := s.escPending[key]; ok && now-rec.at < escalationTTL {
		s.stats.DupEscalationsSuppressed++
		return true
	}
	if s.escPending == nil {
		s.escPending = make(map[escKey]escRecord)
	}
	s.escPending[key] = escRecord{pkt: *p, at: now}
	return false
}

// clearEscalation drops the pending record for a flow the controller
// answered (its PacketOut carries the escalated packet back).
func (s *Switch) clearEscalation(p *model.Packet) {
	if s.escPending == nil {
		return
	}
	delete(s.escPending, escKey{p.SrcMAC.Uint64(), p.DstMAC.Uint64()})
}

// reflushEscalations re-sends every unexpired pending escalation to
// the newly adopted master, in deterministic key order: escalations in
// flight to the dead primary died with it.
func (s *Switch) reflushEscalations() {
	if len(s.escPending) == 0 {
		return
	}
	now := s.env.Now()
	keys := make([]escKey, 0, len(s.escPending))
	for k := range s.escPending {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	for _, k := range keys {
		rec := s.escPending[k]
		if now-rec.at >= escalationTTL {
			delete(s.escPending, k)
			continue
		}
		s.stats.EscalationsReflushed++
		pkt := rec.pkt
		s.sendCtrl(&openflow.PacketIn{Switch: s.cfg.ID, Reason: openflow.ReasonNoMatch, Packet: pkt})
	}
}
