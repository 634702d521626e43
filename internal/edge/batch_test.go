package edge

import (
	"testing"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
)

// TestBatchedConfigPreloadsGFIB delivers a controller-style coalesced
// push — GroupConfig followed by a peer G-FIB preload — and checks the
// switch can forward to the preloaded peer immediately, without waiting
// for a dissemination round.
func TestBatchedConfigPreloadsGFIB(t *testing.T) {
	r := newRig(t, 1, 2)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)

	members := []model.SwitchID{1, 2}
	batch := &openflow.Batch{Msgs: []openflow.Message{
		&openflow.GroupConfig{
			Group:             1,
			Members:           members,
			Designated:        1,
			RingPrev:          2,
			RingNext:          2,
			SyncInterval:      5 * time.Second,
			KeepAliveInterval: time.Second,
			Version:           2,
		},
		&openflow.GFIBUpdate{
			Group:   1,
			Filters: []openflow.GFIBFilter{{Switch: 2, Filter: filterBytes(t, 20), Version: 2}},
			Version: 2,
		},
	}}
	r.switches[1].HandleMessage(model.ControllerNode, batch)

	if got := r.switches[1].Group().Version; got != 2 {
		t.Fatalf("group config not applied from batch: version = %d", got)
	}
	if r.switches[1].GFIB().Len() == 0 {
		t.Fatal("preload did not install a G-FIB filter")
	}
	// The preloaded filter must answer for host 20 right away: the
	// first packet goes peer-to-peer, not to the controller.
	r.switches[1].InjectLocal(pkt(10, 20, 0))
	r.sim.RunFor(5 * time.Millisecond)
	if len(r.delivered[2]) != 1 {
		t.Fatalf("preloaded peer did not receive the flow (delivered=%v)", r.delivered)
	}
	if got := len(r.ctrl.packetIns()); got != 0 {
		t.Errorf("%d PacketIns reached the controller despite the preload", got)
	}
	// A nested batch is ignored, not recursed into.
	r.switches[1].HandleMessage(model.ControllerNode, &openflow.Batch{
		Msgs: []openflow.Message{&openflow.Batch{}},
	})
}

// bursts extracts PacketInBurst messages the recorder saw.
func (c *ctrlRecorder) bursts() []*openflow.PacketInBurst {
	var out []*openflow.PacketInBurst
	for _, m := range c.got {
		if b, ok := m.(*openflow.PacketInBurst); ok {
			out = append(out, b)
		}
	}
	return out
}

// TestPacketInMicroBatching pins the control-link intake window: with
// a count threshold of 4, nine escalated packets leave the switch as
// two full PacketInBursts plus one deadline-flushed plain PacketIn.
func TestPacketInMicroBatching(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	ctrl := &ctrlRecorder{}
	n.Attach(ctrl)
	sw := New(Config{
		ID:               1,
		PacketInBatchMax: 4,
	}, n.Env(1))
	n.Attach(sw)
	sw.AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	for i := 0; i < 9; i++ {
		sw.InjectLocal(pkt(10, model.HostID(100+i), 0))
	}
	s.RunFor(time.Second)

	bursts := ctrl.bursts()
	if len(bursts) != 2 || len(bursts[0].Items) != 4 || len(bursts[1].Items) != 4 {
		t.Fatalf("bursts = %d (sizes %v), want two of 4", len(bursts), bursts)
	}
	if got := len(ctrl.packetIns()); got != 1 {
		t.Errorf("plain PacketIns = %d, want 1 (the deadline flush of a single leftover)", got)
	}
	st := sw.Stats()
	if st.PacketIns != 9 || st.PacketInBursts != 2 {
		t.Errorf("stats = PacketIns %d PacketInBursts %d, want 9/2", st.PacketIns, st.PacketInBursts)
	}
}

// TestPacketInBatchFlushOnStop ensures Stop drains the window instead
// of dropping buffered escalations.
func TestPacketInBatchFlushOnStop(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	ctrl := &ctrlRecorder{}
	n.Attach(ctrl)
	sw := New(Config{ID: 1, PacketInBatchMax: 8}, n.Env(1))
	n.Attach(sw)
	sw.AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	sw.InjectLocal(pkt(10, 50, 0))
	sw.InjectLocal(pkt(10, 51, 0))
	sw.Stop()
	s.RunFor(time.Second)
	if len(ctrl.bursts()) != 1 {
		t.Fatalf("Stop did not flush the window (bursts=%d)", len(ctrl.bursts()))
	}
}

// TestPeerEvidenceFilterEviction covers the lazy-mode eviction on peer
// evidence: a switch that reports its ring neighbor lost immediately
// drops the neighbor's preloaded G-FIB filter, so new flows toward the
// dead switch's hosts escalate to the controller instead of encapping
// into a black hole while the controller's diagnosis window is open.
func TestPeerEvidenceFilterEviction(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	r.switches[3].AttachHost(model.HostMAC(30), model.HostIP(30), 1)
	r.configureGroup(1, 1, 1, 2, 3)
	r.sim.RunFor(12 * time.Second)
	if _, held := r.switches[3].GFIB().PeerVersion(2); !held {
		t.Fatal("switch 3 never installed switch 2's filter")
	}

	r.net.FailNode(2)
	r.sim.RunFor(10 * time.Second)
	if len(r.ctrl.failureReports()) == 0 {
		t.Fatal("ring neighbors never reported the dead switch")
	}
	if _, held := r.switches[3].GFIB().PeerVersion(2); held {
		t.Error("switch 3 kept the dead neighbor's filter after reporting it")
	}
	// A flow toward the dead switch's host now escalates instead of
	// encapping into the failed node.
	before := len(r.ctrl.packetIns())
	r.switches[3].InjectLocal(pkt(30, 20, 0))
	r.sim.RunFor(time.Second)
	if got := len(r.ctrl.packetIns()); got != before+1 {
		t.Errorf("flow to dead switch produced %d PacketIns, want %d", got, before+1)
	}
	// Later dissemination rounds must not resurrect the dead member's
	// filter (the designated switch dropped its aggregation state too).
	r.sim.RunFor(30 * time.Second)
	if _, held := r.switches[3].GFIB().PeerVersion(2); held {
		t.Error("dissemination resurrected the dead member's filter")
	}
}

// TestPeerEvictionFalseAlarmRecovers unwinds the peer-evidence
// eviction: a transient peer-link failure makes the designated switch
// report and evict a live member, and the member's resumed keep-alives
// must bring its aggregation state and disseminated filter back (the
// designated re-sends the group view, forcing a full bootstrap
// advertisement).
func TestPeerEvictionFalseAlarmRecovers(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	for _, h := range []model.HostID{10, 20, 30} {
		r.switches[model.SwitchID(uint32(h)/10)].AttachHost(model.HostMAC(h), model.HostIP(h), 1)
	}
	r.configureGroup(1, 1, 1, 2, 3)
	r.sim.RunFor(12 * time.Second)
	if _, held := r.switches[1].GFIB().PeerVersion(2); !held {
		t.Fatal("designated never installed member 2's filter")
	}

	// Transient glitch: the 1↔2 peer link drops long enough for 1 to
	// report and evict 2, then heals.
	r.net.FailLink(1, 2)
	r.sim.RunFor(10 * time.Second)
	if _, held := r.switches[1].GFIB().PeerVersion(2); held {
		t.Fatal("designated never evicted the silent member's filter")
	}
	r.net.HealLink(1, 2)
	// Member 2's keep-alives resume; the designated re-syncs it and its
	// full advertisement rebuilds aggregation and dissemination state.
	r.sim.RunFor(45 * time.Second)
	if _, held := r.switches[1].GFIB().PeerVersion(2); !held {
		t.Error("designated did not recover member 2's filter after the false alarm")
	}
	if _, held := r.switches[3].GFIB().PeerVersion(2); !held {
		t.Error("group member did not recover member 2's filter after the false alarm")
	}
}
