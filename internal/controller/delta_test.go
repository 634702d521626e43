package controller

import (
	"reflect"
	"slices"
	"testing"

	"lazyctrl/internal/failover"
	"lazyctrl/internal/fib"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// lazyGrouped builds a lazy controller with an initial grouping and a
// warm C-LIB (4 hosts per switch at L-FIB version 1).
func lazyGrouped(t *testing.T) (*Controller, *recordingEnv) {
	t.Helper()
	c, env := newDirectController(t, ModeLazy)
	m := grouping.NewIntensity()
	m.Add(1, 2, 100)
	m.Add(3, 4, 100)
	m.Add(1, 3, 1)
	if err := c.InitialGrouping(m); err != nil {
		t.Fatal(err)
	}
	for sw := model.SwitchID(1); sw <= 16; sw++ {
		var entries []openflow.LFIBEntry
		for j := 0; j < 4; j++ {
			h := model.HostID(uint32(sw)*100 + uint32(j))
			entries = append(entries, openflow.LFIBEntry{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1})
		}
		c.clib.ApplyLFIB(sw, c.grp.GroupOf(sw), &openflow.LFIBUpdate{Full: true, Entries: entries, Version: 1})
	}
	env.reset()
	return c, env
}

// TestPacketInBurstViaHandleMessage checks the PacketInBurst mailbox
// entry point handles every item of the burst.
func TestPacketInBurstViaHandleMessage(t *testing.T) {
	c, _ := newDirectController(t, ModeLearning)
	warmLearning(c, 256)
	batch := stormBatch(64, 3)
	burst := &openflow.PacketInBurst{Switch: batch[0].Switch}
	for i := range batch {
		pi := batch[i]
		pi.Switch = burst.Switch
		burst.Items = append(burst.Items, openflow.BurstPacket{Reason: pi.Reason, Packet: pi.Packet})
	}
	before := c.Stats().PacketIns
	c.HandleMessage(burst.Switch, burst)
	if got := c.Stats().PacketIns - before; got != 64 {
		t.Errorf("burst of 64 counted %d PacketIns", got)
	}
}

// TestPushSkipsCurrentDestinations pins the per-destination version
// tracking: a push round in which nothing changed for anyone sends
// nothing at all.
func TestPushSkipsCurrentDestinations(t *testing.T) {
	c, env := lazyGrouped(t)
	// First post-warm round ships the preloads (configs are already
	// current from InitialGrouping).
	if sent := c.pushGroupConfigs(false); sent == 0 {
		t.Fatal("warm push sent nothing despite fresh C-LIB state")
	}
	env.reset()
	// Nothing moved since: the next round must ship nothing.
	skippedBefore := c.Stats().PushesSkipped
	if sent := c.pushGroupConfigs(false); sent != 0 {
		t.Errorf("idle push round sent to %d destinations, want 0", sent)
	}
	if len(env.sendCounts()) != 0 {
		t.Errorf("idle push round still sent messages: %v", env.sendCounts())
	}
	if c.Stats().PushesSkipped == skippedBefore {
		t.Error("skipped destinations not counted")
	}
}

// TestPreloadDeltaAndNack drives the controller's C-LIB delta path: a
// single-host change ships as a GFIBDelta to already-preloaded
// destinations, and a NACK gets exactly the named peers back in full.
func TestPreloadDeltaAndNack(t *testing.T) {
	c, env := lazyGrouped(t)
	c.pushGroupConfigs(false) // full preloads, seeds per-destination versions
	env.reset()

	// One host arrives on switch 1; the designated switch's next full
	// report carries the grown snapshot at L-FIB version 2 (only full
	// snapshots advance the C-LIB's preload version stamp).
	var entries []openflow.LFIBEntry
	for j := 0; j < 4; j++ {
		hh := model.HostID(100 + uint32(j))
		entries = append(entries, openflow.LFIBEntry{MAC: model.HostMAC(hh), IP: model.HostIP(hh), VLAN: 1})
	}
	h := model.HostID(199)
	entries = append(entries, openflow.LFIBEntry{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1})
	c.clib.ApplyLFIB(1, c.grp.GroupOf(1), &openflow.LFIBUpdate{Full: true, Entries: entries, Version: 2})
	if sent := c.pushGroupConfigs(false); sent == 0 {
		t.Fatal("push after C-LIB change sent nothing")
	}
	if c.Stats().PreloadDeltas == 0 {
		t.Error("changed filter did not ship as a delta")
	}
	// Only switch 1's group peers hear about it.
	gid := c.grp.GroupOf(1)
	for to, msgs := range env.sends {
		if c.grp.GroupOf(to) != gid {
			t.Errorf("destination %v outside group %v received %d messages", to, gid, len(msgs))
			continue
		}
		d, ok := msgs[0].(*openflow.GFIBDelta)
		if !ok {
			t.Errorf("destination %v got %T, want *openflow.GFIBDelta", to, msgs[0])
			continue
		}
		if len(d.Deltas) != 1 || d.Deltas[0].Switch != 1 || d.Deltas[0].BaseVersion != 1 || d.Deltas[0].TargetVersion != 2 {
			t.Errorf("delta to %v = %+v", to, d.Deltas[0])
		}
		if len(d.Deltas[0].Words) == 0 {
			t.Errorf("delta to %v carries no words", to)
		}
	}

	// A member that lost its state NACKs; it gets the full filter.
	env.reset()
	var member model.SwitchID
	for _, m := range c.grp.Members(gid) {
		if m != 1 {
			member = m
			break
		}
	}
	c.handleGFIBNack(&openflow.GFIBNack{Group: gid, Origin: member, Peers: []model.SwitchID{1}})
	msgs := env.sends[member]
	if len(msgs) != 1 {
		t.Fatalf("NACK answered with %d messages, want 1", len(msgs))
	}
	u, ok := msgs[0].(*openflow.GFIBUpdate)
	if !ok || len(u.Filters) != 1 || u.Filters[0].Switch != 1 || u.Filters[0].Version != 2 {
		t.Fatalf("NACK resync = %+v, want full filter for switch 1 at version 2", msgs[0])
	}
	if c.Stats().PreloadNacks == 0 {
		t.Error("resync not counted")
	}
}

// TestPreloadNackAnsweredOnlyToOrigin: a NACK whose Origin is not the
// node that delivered it is ignored. Answering it would ship full
// filters to a switch that never asked, and markPushed would record
// versions there that it never received.
func TestPreloadNackAnsweredOnlyToOrigin(t *testing.T) {
	c, env := lazyGrouped(t)
	c.pushGroupConfigs(false)
	gid := c.grp.GroupOf(1)
	named := model.NoSwitch
	for _, m := range c.grp.Members(gid) {
		if m != 1 {
			named = m
			break
		}
	}
	sender := named%16 + 1 // any other configured switch
	env.reset()
	c.HandleMessage(sender, &openflow.GFIBNack{Group: gid, Origin: named, Peers: []model.SwitchID{1}})
	if got := env.sendCounts(); len(got) != 0 {
		t.Errorf("NACK from %v naming %v was answered: %v", sender, named, got)
	}
	if got := c.Stats().PreloadNacks; got != 0 {
		t.Errorf("PreloadNacks = %d, want 0", got)
	}
	// The same NACK from its origin is answered.
	c.HandleMessage(named, &openflow.GFIBNack{Group: gid, Origin: named, Peers: []model.SwitchID{1}})
	if got := env.sendCounts(); len(got) != 1 || got[named] != 1 {
		t.Errorf("NACK from its origin answered with %v, want one message to %v", got, named)
	}
}

// regroupTo installs a hand-made grouping of switches 1–16 (every switch
// not named goes to group 1) and runs the push round a regroup runs.
func regroupTo(c *Controller, groups map[model.SwitchID]model.GroupID) {
	assign := make(map[model.SwitchID]model.GroupID, 16)
	for sw := model.SwitchID(1); sw <= 16; sw++ {
		assign[sw] = 1
		if g, ok := groups[sw]; ok {
			assign[sw] = g
		}
	}
	c.grp = grouping.Rebuild(assign)
	c.repush(false)
}

// preloadsTo returns the peers whose filters the messages sent to dest
// carried, in full and as deltas.
func preloadsTo(env *recordingEnv, dest model.SwitchID) (full, delta []model.SwitchID) {
	var walk func(openflow.Message)
	walk = func(m openflow.Message) {
		switch m := m.(type) {
		case *openflow.Batch:
			for _, part := range m.Msgs {
				walk(part)
			}
		case *openflow.GFIBUpdate:
			for _, f := range m.Filters {
				full = append(full, f.Switch)
			}
		case *openflow.GFIBDelta:
			for _, d := range m.Deltas {
				delta = append(delta, d.Switch)
			}
		}
	}
	for _, m := range env.sends[dest] {
		walk(m.(openflow.Message))
	}
	return full, delta
}

// TestPreloadNackForNonMemberIgnored: a NACK naming a peer outside the
// origin's group is not answered. The switch ignores filters of
// non-members, so a recorded push would be false, and the regroup that
// later makes that peer a member would skip its preload.
func TestPreloadNackForNonMemberIgnored(t *testing.T) {
	const d, p = model.SwitchID(1), model.SwitchID(9)
	c, env := lazyGrouped(t)
	regroupTo(c, map[model.SwitchID]model.GroupID{p: 2, p + 1: 2}) // p's filter is built
	env.reset()
	c.HandleMessage(d, &openflow.GFIBNack{Group: c.grp.GroupOf(d), Origin: d, Peers: []model.SwitchID{p}})
	if got := env.sendCounts(); len(got) != 0 {
		t.Errorf("NACK from %v naming non-member %v was answered: %v", d, p, got)
	}
	// The regroup that puts p with d must preload p's (unchanged)
	// filter to d in full.
	env.reset()
	regroupTo(c, nil)
	full, _ := preloadsTo(env, d)
	if !slices.Contains(full, p) {
		t.Errorf("regroup preloaded %v in full to %v, want %v among them", full, d, p)
	}
}

// TestPreloadPeerLeavesAndReturns pins the per-round prune of acked
// versions: a peer that leaves a destination's group and comes back with
// an unchanged filter is preloaded in full (the destination dropped it
// when the peer left), while a peer that stayed is skipped.
func TestPreloadPeerLeavesAndReturns(t *testing.T) {
	const d, p, q = model.SwitchID(1), model.SwitchID(2), model.SwitchID(3)
	c, env := lazyGrouped(t)
	regroupTo(c, map[model.SwitchID]model.GroupID{d: 2, p: 2, q: 2})
	regroupTo(c, map[model.SwitchID]model.GroupID{d: 2, q: 2})
	env.reset()
	regroupTo(c, map[model.SwitchID]model.GroupID{d: 2, p: 2, q: 2})
	full, delta := preloadsTo(env, d)
	if !slices.Equal(full, []model.SwitchID{p}) || len(delta) != 0 {
		t.Errorf("return of %v preloaded full %v, delta %v to %v; want full [%v] only", p, full, delta, d, p)
	}
}

// TestMarkRecoveredPushesOnlyRecovered asserts recovery re-pushes tell
// only the rebooted switch, not its whole group.
func TestMarkRecoveredPushesOnlyRecovered(t *testing.T) {
	c, env := lazyGrouped(t)
	c.pushGroupConfigs(false)
	c.actOnDiagnosis(2, failover.DiagSwitch)
	env.reset()
	c.MarkRecovered(2)
	counts := env.sendCounts()
	if len(counts) != 1 || counts[2] != 1 {
		t.Fatalf("recovery push went to %v, want exactly one message to switch 2", counts)
	}
	b, ok := env.sends[2][0].(*openflow.Batch)
	if !ok {
		t.Fatalf("recovery push = %T, want a Batch (config + preloads)", env.sends[2][0])
	}
	if _, ok := b.Msgs[0].(*openflow.GroupConfig); !ok {
		t.Error("recovery batch does not lead with the GroupConfig")
	}
}

// TestRecoveredUnchangedHostsPreloadZeroWordDelta: a switch that reboots
// and re-attaches the same hosts reports them under a new epoch, so its
// L-FIB version moves while its filter's bits do not. Recovery preloads
// it to its peers as a zero-word delta, not as a full filter.
func TestRecoveredUnchangedHostsPreloadZeroWordDelta(t *testing.T) {
	c, env := lazyGrouped(t)
	c.pushGroupConfigs(false) // peers hold switch 2's filter at version 1
	entries := c.clib.EntriesOn(2)
	rebooted := uint64(1)<<fib.VersionEpochShift | uint64(len(entries))
	c.clib.ApplyLFIB(2, c.grp.GroupOf(2), &openflow.LFIBUpdate{Full: true, Entries: entries, Version: rebooted})
	env.reset()
	before := c.Stats()
	c.MarkRecovered(2)

	gid := c.grp.GroupOf(2)
	var peers int
	for _, m := range c.grp.Members(gid) {
		if m == 2 {
			continue
		}
		peers++
		msgs := env.sends[m]
		if len(msgs) != 1 {
			t.Errorf("peer %v got %d messages, want 1", m, len(msgs))
			continue
		}
		d, ok := msgs[0].(*openflow.GFIBDelta)
		if !ok {
			t.Errorf("peer %v got %T, want *openflow.GFIBDelta", m, msgs[0])
			continue
		}
		if len(d.Deltas) != 1 || d.Deltas[0].Switch != 2 || d.Deltas[0].BaseVersion != 1 ||
			d.Deltas[0].TargetVersion != rebooted || len(d.Deltas[0].Words) != 0 {
			t.Errorf("delta to %v = %+v, want one zero-word item for switch 2, 1 → %d", m, d.Deltas, rebooted)
		}
	}
	if peers == 0 {
		t.Fatal("setup: switch 2 has no group peers")
	}
	after := c.Stats()
	if got := after.PreloadDeltas - before.PreloadDeltas; got != uint64(peers) {
		t.Errorf("PreloadDeltas moved by %d, want %d", got, peers)
	}
	// The only full filters are the peers' own, shipped to switch 2,
	// whose per-destination tracking the recovery forgets.
	if got := after.PreloadFulls - before.PreloadFulls; got != uint64(peers) {
		t.Errorf("PreloadFulls moved by %d, want %d (the peers' filters to switch 2)", got, peers)
	}
}

// TestBurstMatchesSequentialLazy pins ProcessBurst to the sequential
// path on a lazy-mode storm whose unresolved flows pend and relay ARP
// queries: identical stats, sends, and pending state.
func TestBurstMatchesSequentialLazy(t *testing.T) {
	batch := stormBatch(1024, 23)
	warm := func() (*Controller, *recordingEnv) {
		c, env := newDirectController(t, ModeLazy)
		for h := model.HostID(1); h <= 256; h++ {
			c.CLIB().Update(model.HostMAC(h), model.HostIP(h), 1, model.SwitchID(uint32(h)%16+1), 1)
		}
		env.reset()
		return c, env
	}
	seqC, seqEnv := warm()
	for i := range batch {
		pi := batch[i]
		seqC.HandleMessage(pi.Switch, &pi)
	}
	burstC, burstEnv := warm()
	burstC.ProcessBurst(batch, 2)

	if seqC.Stats() != burstC.Stats() {
		t.Errorf("stats differ:\nseq:   %+v\nburst: %+v", seqC.Stats(), burstC.Stats())
	}
	if !reflect.DeepEqual(seqEnv.sendCounts(), burstEnv.sendCounts()) {
		t.Error("send counts differ between sequential and burst paths")
	}
	if !reflect.DeepEqual(seqC.state.pending, burstC.state.pending) {
		t.Error("pending tables differ between sequential and burst paths")
	}
}
