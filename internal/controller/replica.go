package controller

import (
	"time"

	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// This file implements controller replication: a hot-standby replica
// mirrors the primary's C-LIB, grouping, and failure state over a
// journal of StateSyncRecords (the same versioned increments the
// designated switches already emit), watches the primary's heartbeats,
// and takes the master role deterministically when they stop. Role
// handoff is fenced by a monotonically increasing cluster generation
// ID stamped into every controller→edge push; see docs/robustness.md.

// TakeoverTimeline records one takeover's phase boundaries (simulation
// time): when the standby declared the primary dead and announced
// itself, when the residue rebuild closed (a fresh designated report
// from every group), and when every re-pushed config was acked.
type TakeoverTimeline struct {
	// Generation is the cluster generation the takeover established.
	Generation uint64
	// DetectedAt is when the miss threshold closed; AnnouncedAt is when
	// the RoleAnnounce broadcast went out (the same round here —
	// takeover is synchronous).
	DetectedAt  time.Duration
	AnnouncedAt time.Duration
	// RebuiltAt is when the last group's post-takeover designated
	// report arrived (zero while outstanding).
	RebuiltAt time.Duration
	// RepushedAt is when the last re-pushed group config was acked
	// (zero while outstanding).
	RepushedAt time.Duration
}

// Generation returns the replica's current cluster generation.
func (c *Controller) Generation() uint64 { return c.generation }

// IsMaster reports whether this replica currently holds the master
// role.
func (c *Controller) IsMaster() bool { return !c.isStandby }

// TakeoverTimelines returns the takeovers this replica performed, in
// order.
func (c *Controller) TakeoverTimelines() []TakeoverTimeline {
	out := make([]TakeoverTimeline, len(c.takeovers))
	copy(out, c.takeovers)
	return out
}

// currentTakeover returns the in-progress takeover's timeline, or nil.
func (c *Controller) currentTakeover() *TakeoverTimeline {
	if len(c.takeovers) == 0 {
		return nil
	}
	return &c.takeovers[len(c.takeovers)-1]
}

// watchPrimary is the standby's periodic duty: heartbeat the primary
// (which doubles as the bootstrap-snapshot request — a seq-1 heartbeat
// tells the master this standby holds nothing) and take over once
// takeoverMisses heartbeat intervals pass without one back.
func (c *Controller) watchPrimary() {
	if c.cfg.Peer == 0 || !c.isStandby {
		return
	}
	now := c.env.Now()
	c.standbySeq++
	c.env.Send(c.cfg.Peer, &openflow.KeepAlive{From: c.addr, Seq: c.standbySeq, Generation: c.generation})
	if !c.peerSeen {
		// Grace period: the primary has never spoken; give it a full
		// deadline from now (mirrors the edge keep-alive grace rule).
		c.peerSeen = true
		c.peerLastKA = now
		return
	}
	deadline := takeoverMisses * c.cfg.KeepAliveInterval
	if now-c.peerLastKA >= deadline {
		c.becomeMaster()
	}
}

// handlePeerKeepAlive processes the other replica's heartbeat. On the
// standby it rearms the takeover timer; on the master it triggers the
// bootstrap snapshot for a standby that holds nothing (its watch
// sequence restarted at 1, or it was never synced). Either way the
// carried generation is adopted, which is what demotes a healed stale
// master the moment it hears the new one.
func (c *Controller) handlePeerKeepAlive(m *openflow.KeepAlive) {
	c.adoptGeneration(m.Generation, m.From)
	if c.isStandby {
		c.peerSeen = true
		c.peerLastKA = c.env.Now()
		return
	}
	if m.Seq <= 1 || !c.peerSynced {
		c.peerSynced = true
		c.sendSnapshot()
	}
}

// becomeMaster performs the standby→primary takeover: bump the cluster
// generation past everything previously announced, broadcast the new
// role to every switch (and the old primary, should it still be
// listening), and rebuild what the journal could not have carried by
// re-pushing every group config under the new generation — the
// kicked designated switches answer with full reports, which is the
// same anti-entropy residue repair a recovered switch gets.
func (c *Controller) becomeMaster() {
	if !c.isStandby {
		return
	}
	now := c.env.Now()
	c.isStandby = false
	c.generation = c.generation + 1
	c.stats.Takeovers++
	c.takeovers = append(c.takeovers, TakeoverTimeline{
		Generation:  c.generation,
		DetectedAt:  now,
		AnnouncedAt: now,
	})
	ann := &openflow.RoleAnnounce{From: c.addr, Generation: c.generation}
	for _, sw := range c.cfg.Switches {
		c.env.Send(sw, ann)
	}
	if c.cfg.Peer != 0 {
		c.env.Send(c.cfg.Peer, ann)
	}
	// The residue window: every group owes the new master one fresh
	// designated report before its mirrored state is known current.
	c.rebuildPending = make(map[model.GroupID]bool, c.grp.NumGroups())
	for _, gid := range c.grp.GroupIDs() {
		c.rebuildPending[gid] = true
	}
	c.awaitingRepush = true
	// Re-push everything under the new generation: forgetting the
	// per-destination tracking makes the round ship full configs and
	// preloads, exactly like MarkRecovered does for one switch (repush
	// journals nothing here: a just-promoted standby has no synced peer).
	c.forgetPushed(c.cfg.Switches...)
	c.repush(true)
}

// adoptGeneration folds an observed cluster generation into this
// replica: generations only move up, and a master that sees a higher
// generation owned by someone else has been superseded and steps down.
func (c *Controller) adoptGeneration(gen uint64, owner model.SwitchID) {
	if gen <= c.generation {
		return
	}
	c.generation = gen
	if !c.isStandby && owner != c.addr {
		c.stepDown()
	}
}

// stepDown demotes this replica to standby: all switch-facing push
// supervision stops, the per-destination push tracking is dropped (it
// describes pushes the fabric will fence anyway), and the watch state
// resets so the next watch heartbeat (seq 1) requests a fresh
// bootstrap snapshot from the new master.
func (c *Controller) stepDown() {
	c.isStandby = true
	c.stats.StepDowns++
	for _, sw := range c.cfg.Switches {
		c.endPush(sw, "cancelled")
	}
	c.forgetPushed(c.cfg.Switches...)
	c.peerSeen = false
	c.peerSynced = false
	c.standbySeq = 0
	c.awaitingRepush = false
	c.rebuildPending = nil
}

// replicating reports whether this replica should journal state
// increments: it is the master of a replicated pair and the standby
// has been bootstrapped (records sent before the snapshot would apply
// against nothing).
func (c *Controller) replicating() bool {
	return c.cfg.Peer != 0 && !c.isStandby && c.peerSynced
}

// sendSnapshot ships the standby its bootstrap: the full grouping, a
// full L-FIB record per switch — including empty ones, so a re-syncing
// demoted replica drops ghost entries a Full replace would otherwise
// miss — and the current dead set.
func (c *Controller) sendSnapshot() {
	c.journalGrouping()
	for _, sw := range c.cfg.Switches {
		c.journalSend(&openflow.StateSyncRecord{
			Kind:            openflow.SyncLFIB,
			Generation:      c.generation,
			GroupingVersion: c.groupingVersion,
			Origin:          sw,
			Full:            true,
			Version:         c.clib.VersionOn(sw),
			Entries:         c.clib.EntriesOn(sw),
		})
	}
	for _, sw := range c.cfg.Switches {
		if c.sw[sw].dead {
			c.journalDead(sw, true)
		}
	}
}

// journalSend ships one journal record to the peer replica.
func (c *Controller) journalSend(rec *openflow.StateSyncRecord) {
	c.stats.SyncRecordsSent++
	c.env.Send(c.cfg.Peer, rec)
}

// journalLFIB mirrors one switch's L-FIB update to the standby, in the
// same full/increment form it arrived in.
func (c *Controller) journalLFIB(u *openflow.LFIBUpdate) {
	if !c.replicating() {
		return
	}
	c.journalSend(&openflow.StateSyncRecord{
		Kind:            openflow.SyncLFIB,
		Generation:      c.generation,
		GroupingVersion: c.groupingVersion,
		Origin:          u.Origin,
		Full:            u.Full,
		Version:         u.Version,
		Entries:         u.Entries,
	})
}

// journalGrouping mirrors the full switch→group assignment to the
// standby. Group IDs travel verbatim: the standby must reproduce them
// exactly (they appear in pushed configs), so it rebuilds rather than
// re-derives its grouping.
func (c *Controller) journalGrouping() {
	if !c.replicating() {
		return
	}
	var assign []openflow.SyncAssign
	for _, gid := range c.grp.GroupIDs() {
		for _, m := range c.grp.Members(gid) {
			assign = append(assign, openflow.SyncAssign{Switch: m, Group: gid})
		}
	}
	c.journalSend(&openflow.StateSyncRecord{
		Kind:            openflow.SyncGrouping,
		Generation:      c.generation,
		GroupingVersion: c.groupingVersion,
		Assign:          assign,
	})
}

// journalDead mirrors a switch-death diagnosis (dead=true) or its
// reversal (dead=false) to the standby; Full carries the flag.
func (c *Controller) journalDead(sw model.SwitchID, dead bool) {
	if !c.replicating() {
		return
	}
	c.journalSend(&openflow.StateSyncRecord{
		Kind:            openflow.SyncTombstone,
		Generation:      c.generation,
		GroupingVersion: c.groupingVersion,
		Origin:          sw,
		Full:            dead,
	})
}

// handleSyncRecord applies one journal record on the standby; admit has
// already fenced it. A master receiving a higher-generation record has
// been superseded (adoptGeneration demotes it first, then the record
// applies to it as the new standby).
func (c *Controller) handleSyncRecord(from model.SwitchID, m *openflow.StateSyncRecord) {
	c.adoptGeneration(m.Generation, from)
	if !c.isStandby {
		return
	}
	c.stats.SyncRecordsApplied++
	if m.GroupingVersion > c.groupingVersion {
		c.groupingVersion = m.GroupingVersion
	}
	switch m.Kind {
	case openflow.SyncGrouping:
		// C-LIB group tags follow the mirrored grouping, exactly as
		// pushGroupConfigs retags them on the primary. Only configured
		// switches are mirrored: a takeover pushes to every member.
		assign := make(map[model.SwitchID]model.GroupID, len(m.Assign))
		for _, a := range m.Assign {
			if c.sw[a.Switch] == nil {
				continue
			}
			assign[a.Switch] = a.Group
			c.clib.SetGroup(a.Switch, a.Group)
		}
		c.grp = grouping.Rebuild(assign)
	case openflow.SyncLFIB:
		if c.sw[m.Origin] == nil {
			break // mirrored like the primary's intake: configured switches only
		}
		u := &openflow.LFIBUpdate{
			Origin:  m.Origin,
			Full:    m.Full,
			Version: m.Version,
			Entries: m.Entries,
		}
		c.clib.ApplyLFIB(m.Origin, c.grp.GroupOf(m.Origin), u)
	case openflow.SyncTombstone:
		if rec := c.sw[m.Origin]; rec != nil {
			rec.dead = m.Full
		}
		if m.Full {
			c.clib.RemoveSwitch(m.Origin)
		}
	}
}
