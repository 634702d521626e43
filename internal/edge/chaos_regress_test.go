package edge

import (
	"testing"
	"time"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/fib"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// TestEvictionDuringLossWindowNoResurrect pins the failover unwind
// against the fault-injection layer: a member evicted on peer evidence
// during an active loss window must stay evicted — an increment
// advertisement arriving without a base snapshot is not adopted by the
// designated switch, and a word-delta against the tombstoned filter
// does not resurrect it at a member — until the loss clears, the
// resumed keep-alive triggers the unwind, and a full advertisement
// rebuilds everything.
func TestEvictionDuringLossWindowNoResurrect(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	r.switches[3].AttachHost(model.HostMAC(30), model.HostIP(30), 1)
	r.configureGroup(1, 2, 1, 2, 3)
	r.sim.RunFor(12 * time.Second)
	if _, held := r.switches[1].GFIB().PeerVersion(3); !held {
		t.Fatal("setup: S1 never received S3's filter")
	}

	// Loss window: S3 goes completely silent (keep-alives, adverts,
	// everything) without actually dying.
	removeLoss := r.net.AddFault(netsim.FaultRule{A: 3, B: model.NoSwitch, Loss: 1.0})
	r.sim.RunFor(6 * time.Second)
	if _, held := r.switches[1].GFIB().PeerVersion(3); held {
		t.Fatal("S1 still holds S3's filter after peer-evidence eviction")
	}
	if _, held := r.switches[2].GFIB().PeerVersion(3); held {
		t.Fatal("designated still holds S3's filter after eviction")
	}

	// S3 learns a new host mid-window; an increment advertisement from
	// it races the tombstone and lands at the designated, which no
	// longer has S3's base snapshot. It must not be adopted.
	r.switches[3].AttachHost(model.HostMAC(31), model.HostIP(31), 1)
	inc := &openflow.StateReport{
		Group: 1,
		LFIBs: []openflow.LFIBUpdate{{
			Origin: 3,
			Full:   false,
			Entries: []openflow.LFIBEntry{
				{MAC: model.HostMAC(31), IP: model.HostIP(31), VLAN: 1},
			},
			Version: r.switches[3].LFIB().Version(),
		}},
	}
	r.switches[2].HandleMessage(3, inc)

	// A stale word-delta for the tombstoned filter reaches S1. With no
	// base filter held it must be NACKed/ignored, never installed.
	r.switches[1].HandleMessage(2, &openflow.GFIBDelta{
		Group:   1,
		Version: 1,
		Deltas: []openflow.GFIBFilterDelta{{
			Switch:        3,
			BaseVersion:   1,
			TargetVersion: inc.LFIBs[0].Version,
			Words:         []bloom.WordDelta{{Index: 0, Word: 0xff}},
		}},
	})

	// Two dissemination rounds later nothing about S3 may have come
	// back: no adopted increment, no resurrected filter.
	r.sim.RunFor(12 * time.Second)
	if _, held := r.switches[1].GFIB().PeerVersion(3); held {
		t.Fatal("tombstoned filter resurrected during the loss window")
	}
	if _, held := r.switches[2].GFIB().PeerVersion(3); held {
		t.Fatal("designated adopted S3 state from an increment without a base")
	}

	// Loss clears: resumed keep-alives trigger the unwind (the
	// designated re-sends the group view), S3's reset advertisement
	// state forces a full snapshot, and every view rebuilds — with
	// both hosts, not just the increment's.
	removeLoss()
	r.sim.RunFor(20 * time.Second)
	got := r.switches[1].GFIB().SnapshotBytes()[3]
	if _, held := r.switches[1].GFIB().PeerVersion(3); !held {
		t.Fatal("S3's filter never rebuilt after the loss window")
	}
	want, err := fib.FilterBytesFromWireEntries([]openflow.LFIBEntry{
		{MAC: model.HostMAC(30), IP: model.HostIP(30), VLAN: 1},
		{MAC: model.HostMAC(31), IP: model.HostIP(31), VLAN: 1},
	}, fib.DefaultFilterBits, fib.DefaultFilterHashes)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("rebuilt filter does not match S3's full host set")
	}
}

// TestDegradedModeFloodFallback pins the controller-silence fallback:
// once the controller misses its keep-alive window, a no-match packet
// floods to the group instead of black-holing in a PacketIn to a dead
// controller, the degradation window is metered, and a resumed
// controller keep-alive exits the mode.
func TestDegradedModeFloodFallback(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[3].AttachHost(model.HostMAC(30), model.HostIP(30), 1)
	r.configureGroup(1, 2, 1, 2, 3)
	// One controller keep-alive so S1 has seen the controller at all
	// (the mode never triggers on a controller that never spoke).
	r.switches[1].HandleMessage(model.ControllerNode, &openflow.KeepAlive{From: model.ControllerNode, Seq: 1})
	r.sim.RunFor(10 * time.Second) // controller now silent >3 keep-alive windows

	// Make host 30 a G-FIB miss so the packet is a true no-match.
	r.switches[1].GFIB().RemoveFilter(3)
	r.switches[1].InjectLocal(pkt(10, 30, 0))
	r.sim.RunFor(time.Second)

	st := r.switches[1].Stats()
	if st.DegradedFloods == 0 {
		t.Fatal("no-match packet did not flood in degraded mode")
	}
	if len(r.delivered[3]) == 0 {
		t.Fatal("degraded flood did not deliver to the host's switch")
	}
	if st.DegradedWindow != 0 {
		// Still degraded: the open window only folds into stats on
		// exit (or on Stats() via the open-window fold).
		t.Logf("open degraded window: %v", st.DegradedWindow)
	}

	// Controller comes back: the mode exits and the window is metered.
	r.switches[1].HandleMessage(model.ControllerNode, &openflow.KeepAlive{From: model.ControllerNode, Seq: 2})
	st = r.switches[1].Stats()
	if st.DegradedWindow <= 0 {
		t.Fatal("degradation window not metered after exit")
	}
	// Degraded floods stop once the controller is back.
	r.switches[1].InjectLocal(pkt(10, 30, 1))
	r.sim.RunFor(time.Second)
	if got := r.switches[1].Stats().DegradedFloods; got != st.DegradedFloods {
		t.Fatalf("flooded again after controller resumed (floods %d -> %d)", st.DegradedFloods, got)
	}
}

// TestIdleBeaconResyncsLostState pins the idle anti-entropy path: a
// designated switch that silently lost a member's aggregation state
// (lost bootstrap advertisement) learns about it from the member's
// idle version beacon — a zero-entry advertisement asserting the
// current L-FIB version — and resyncs the member (group-view re-send →
// full bootstrap snapshot). The steady-state cost stays a version
// comparison: an idle round never re-ships the snapshot itself.
func TestIdleBeaconResyncsLostState(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	r.switches[3].AttachHost(model.HostMAC(30), model.HostIP(30), 1)
	r.configureGroup(1, 2, 1, 2, 3)
	r.sim.RunFor(12 * time.Second)

	d := r.switches[2]
	if d.role.members[3] == nil {
		t.Fatal("setup: designated never aggregated S3")
	}
	// Simulate a lost bootstrap: the designated drops S3's aggregation
	// without any keep-alive evidence (so no eviction unwind fires).
	delete(d.role.members, 3)

	// S3 is idle — no L-FIB change, no traffic — so only the beacon
	// path can repair this. Within refreshEveryRounds advertise
	// intervals plus the resync round-trip the state must be back.
	r.sim.RunFor(70 * time.Second)
	if r.switches[3].Stats().IdleRefreshes == 0 {
		t.Fatal("idle member never sent a version beacon")
	}
	rec := d.role.members[3]
	if rec == nil {
		t.Fatal("beacon mismatch did not resync the member's state")
	}
	if entries := rec.snapshot; len(entries) != 1 || entries[0].MAC != model.HostMAC(30) {
		t.Fatalf("resynced aggregation wrong: %v", entries)
	}
	if v := rec.version; v != r.switches[3].LFIB().Version() {
		t.Fatalf("resynced version %d != member L-FIB version %d", v, r.switches[3].LFIB().Version())
	}
}

// TestRepromotedDesignatedStartsFresh pins the role lifecycle at the
// edge: the designated role moves 2 → 1 → 2 by GroupConfig alone, the
// membership never changes, and S4 fails while S1 holds the role. S2's
// second tenure must be built from what its members advertise after
// the promotion — S4 must not reappear in any G-FIB, nor in any
// StateReport S2 sends — instead of replaying the snapshot of S4 its
// first tenure left behind.
func TestRepromotedDesignatedStartsFresh(t *testing.T) {
	r := newRig(t, 1, 2, 3, 4)
	for id := model.SwitchID(1); id <= 4; id++ {
		r.switches[id].AttachHost(model.HostMAC(model.HostID(10*id)), model.HostIP(model.HostID(10*id)), 1)
	}
	r.configureGroup(1, 2, 1, 2, 3, 4)
	r.sim.RunFor(12 * time.Second)
	if rec := r.switches[2].role.members[4]; rec == nil {
		t.Fatal("setup: S2's first tenure never aggregated S4")
	}

	r.configureGroup(1, 1, 1, 2, 3, 4)
	r.sim.RunFor(12 * time.Second)
	if r.switches[2].IsDesignated() || !r.switches[1].IsDesignated() {
		t.Fatal("setup: the role did not move to S1")
	}
	r.net.AddFault(netsim.FaultRule{A: 4, B: model.NoSwitch, Loss: 1.0})
	r.sim.RunFor(12 * time.Second)
	for id := model.SwitchID(1); id <= 3; id++ {
		if _, held := r.switches[id].GFIB().PeerVersion(4); held {
			t.Fatalf("setup: S%d still holds S4's filter after the eviction", id)
		}
	}

	// Second promotion, membership unchanged. S4 is down, so only the
	// live members hear the config.
	mark := len(r.ctrl.got)
	for _, m := range []model.SwitchID{1, 2, 3} {
		cfg := r.switches[m].Group()
		cfg.Designated = 2
		r.switches[m].HandleMessage(model.ControllerNode, &cfg)
	}
	r.sim.RunFor(30 * time.Second)
	if !r.switches[2].IsDesignated() {
		t.Fatal("S2 was not promoted a second time")
	}
	for id := model.SwitchID(1); id <= 3; id++ {
		if v, held := r.switches[id].GFIB().PeerVersion(4); held {
			t.Errorf("S%d holds failed S4's filter again (version %d)", id, v)
		}
	}
	reports := 0
	for _, msg := range r.ctrl.got[mark:] {
		sr, ok := msg.(*openflow.StateReport)
		if !ok {
			continue
		}
		reports++
		for _, u := range sr.LFIBs {
			if u.Origin == 4 {
				t.Errorf("a report after the second promotion carries failed S4 (version %d, %d entries)", u.Version, len(u.Entries))
			}
		}
	}
	if reports == 0 {
		t.Fatal("S2 sent no StateReport in its second tenure")
	}
}
