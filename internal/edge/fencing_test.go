package edge

import (
	"testing"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
)

// nodeRecorder records messages delivered to an arbitrary node address
// (the standby replica in these tests).
type nodeRecorder struct {
	id  model.SwitchID
	got []netsim.Message
}

func (n *nodeRecorder) NodeID() model.SwitchID { return n.id }
func (n *nodeRecorder) HandleMessage(from model.SwitchID, msg netsim.Message) {
	n.got = append(n.got, msg)
}

func (n *nodeRecorder) packetIns() []*openflow.PacketIn {
	var out []*openflow.PacketIn
	for _, m := range n.got {
		if pi, ok := m.(*openflow.PacketIn); ok {
			out = append(out, pi)
		}
	}
	return out
}

// TestStaleGenerationBatchNoPartialApply is the fencing regression for
// coalesced pushes: a Batch fenced behind the switch's highest-seen
// generation must be rejected before any sub-message applies — a
// half-applied batch (new group config, old preload, or vice versa)
// would be worse than either generation's consistent state.
func TestStaleGenerationBatchNoPartialApply(t *testing.T) {
	r := newRig(t, 1, 2)
	r.configureGroup(1, 1, 1, 2)

	// The standby took over at generation 2.
	r.switches[1].HandleMessage(model.StandbyNode,
		&openflow.RoleAnnounce{From: model.StandbyNode, Generation: 2})
	if got := r.switches[1].CtrlGeneration(); got != 2 {
		t.Fatalf("generation after RoleAnnounce = %d, want 2", got)
	}
	if got := r.switches[1].Master(); got != model.StandbyNode {
		t.Fatalf("master after RoleAnnounce = %v, want standby", got)
	}

	// A stale master's coalesced push: config bump + peer preload, both
	// stamped with the superseded generation 1.
	stale := &openflow.Batch{Generation: 1, Msgs: []openflow.Message{
		&openflow.GroupConfig{
			Group:             1,
			Members:           []model.SwitchID{1, 2},
			Designated:        2,
			RingPrev:          2,
			RingNext:          2,
			SyncInterval:      5 * time.Second,
			KeepAliveInterval: time.Second,
			Version:           9,
		},
		&openflow.LFIBUpdate{
			Origin:  2,
			Full:    true,
			Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(20), IP: model.HostIP(20), VLAN: 1}},
			Version: 9,
		},
	}}
	r.switches[1].HandleMessage(model.ControllerNode, stale)

	if got := r.switches[1].Group().Version; got != 1 {
		t.Errorf("stale batch applied its GroupConfig: version = %d, want 1", got)
	}
	if got := r.switches[1].GFIB().Len(); got != 0 {
		t.Errorf("stale batch applied its preload: %d G-FIB filters, want 0", got)
	}
	if got := r.switches[1].Stats().StaleGenRejected; got != 1 {
		t.Errorf("StaleGenRejected = %d, want 1 (the batch, fenced once, wholesale)", got)
	}
	// The fence answers the stale sender with a corrective RoleAnnounce
	// naming the real master and generation.
	r.sim.RunFor(10 * time.Millisecond)
	var corrective *openflow.RoleAnnounce
	for _, m := range r.ctrl.got {
		if ra, ok := m.(*openflow.RoleAnnounce); ok {
			corrective = ra
		}
	}
	if corrective == nil {
		t.Fatal("no corrective RoleAnnounce reached the stale master")
	}
	if corrective.From != model.StandbyNode || corrective.Generation != 2 {
		t.Errorf("corrective RoleAnnounce = {From: %v, Generation: %d}, want {standby, 2}",
			corrective.From, corrective.Generation)
	}

	// The same batch under the current generation applies normally.
	current := &openflow.Batch{Generation: 2, Msgs: stale.Msgs}
	r.switches[1].HandleMessage(model.StandbyNode, current)
	if got := r.switches[1].Group().Version; got != 9 {
		t.Errorf("current-generation batch not applied: version = %d, want 9", got)
	}
	if got := r.switches[1].GFIB().Len(); got != 1 {
		t.Errorf("current-generation preload not applied: %d filters, want 1", got)
	}
}

// TestEscalationDedupAndReflush covers the failover escalation
// contract: with TrackEscalations on, a flow's repeat no-match packets
// do not re-escalate while the first PacketIn is in flight, a takeover
// re-flushes the pending escalations to the announced master, and a
// PacketOut resolution reopens the pair.
func TestEscalationDedupAndReflush(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	ctrl := &nodeRecorder{id: model.ControllerNode}
	standby := &nodeRecorder{id: model.StandbyNode}
	n.Attach(ctrl)
	n.Attach(standby)
	sw := New(Config{ID: 1, TrackEscalations: true}, n.Env(1))
	n.Attach(sw)
	sw.Start()
	sw.AttachHost(model.HostMAC(10), model.HostIP(10), 1)

	// Two no-match packets for the same pair: one escalation.
	sw.InjectLocal(pkt(10, 20, 0))
	sw.InjectLocal(pkt(10, 20, 1))
	s.RunFor(10 * time.Millisecond)
	if got := len(ctrl.packetIns()); got != 1 {
		t.Fatalf("%d PacketIns escalated, want 1 (dedup)", got)
	}
	if got := sw.Stats().DupEscalationsSuppressed; got != 1 {
		t.Errorf("DupEscalationsSuppressed = %d, want 1", got)
	}

	// Takeover: the pending escalation is re-flushed to the new master
	// (the old master may have died holding it).
	sw.HandleMessage(model.StandbyNode,
		&openflow.RoleAnnounce{From: model.StandbyNode, Generation: 2})
	s.RunFor(10 * time.Millisecond)
	if got := len(standby.packetIns()); got != 1 {
		t.Fatalf("%d PacketIns re-flushed to the new master, want 1", got)
	}
	if got := sw.Stats().EscalationsReflushed; got != 1 {
		t.Errorf("EscalationsReflushed = %d, want 1", got)
	}

	// The new master resolves the escalation; the next no-match packet
	// for the pair escalates fresh (to the new master).
	sw.HandleMessage(model.StandbyNode, &openflow.PacketOut{
		Actions: []openflow.Action{openflow.Output(1)},
		Packet:  *pkt(10, 20, 0),
	})
	sw.InjectLocal(pkt(10, 20, 2))
	s.RunFor(10 * time.Millisecond)
	if got := len(standby.packetIns()); got != 2 {
		t.Errorf("%d PacketIns at the new master, want 2 (pair reopened after PacketOut)", got)
	}
	if got := len(ctrl.packetIns()); got != 1 {
		t.Errorf("%d PacketIns at the old master, want still 1", got)
	}
}
