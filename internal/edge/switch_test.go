package edge

import (
	"slices"
	"testing"
	"time"

	"lazyctrl/internal/fib"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
)

// ctrlRecorder stands in for the controller.
type ctrlRecorder struct {
	got []netsim.Message
}

func (c *ctrlRecorder) NodeID() model.SwitchID { return model.ControllerNode }

func (c *ctrlRecorder) HandleMessage(from model.SwitchID, msg netsim.Message) {
	c.got = append(c.got, msg)
}

func (c *ctrlRecorder) packetIns() []*openflow.PacketIn {
	var out []*openflow.PacketIn
	for _, m := range c.got {
		if pi, ok := m.(*openflow.PacketIn); ok {
			out = append(out, pi)
		}
	}
	return out
}

func (c *ctrlRecorder) stateReports() []*openflow.StateReport {
	var out []*openflow.StateReport
	for _, m := range c.got {
		if sr, ok := m.(*openflow.StateReport); ok {
			out = append(out, sr)
		}
	}
	return out
}

func (c *ctrlRecorder) failureReports() []*openflow.FailureReport {
	var out []*openflow.FailureReport
	for _, m := range c.got {
		if fr, ok := m.(*openflow.FailureReport); ok {
			out = append(out, fr)
		}
	}
	return out
}

// rig is a small test bench: a DES network, N switches, and a recorded
// controller.
type delivery struct {
	p  *model.Packet
	at time.Duration
}

type rig struct {
	sim      *sim.Simulator
	net      *netsim.Network
	ctrl     *ctrlRecorder
	switches map[model.SwitchID]*Switch
	// delivered records host deliveries per switch.
	delivered map[model.SwitchID][]delivery
}

func newRig(t *testing.T, ids ...model.SwitchID) *rig {
	t.Helper()
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	r := &rig{
		sim:       s,
		net:       n,
		ctrl:      &ctrlRecorder{},
		switches:  make(map[model.SwitchID]*Switch),
		delivered: make(map[model.SwitchID][]delivery),
	}
	n.Attach(r.ctrl)
	for _, id := range ids {
		id := id
		sw := New(Config{
			ID: id,
			// p is valid only during the call: keep a copy.
			OnDeliver: func(p *model.Packet, at time.Duration) {
				cp := *p
				r.delivered[id] = append(r.delivered[id], delivery{p: &cp, at: at})
			},
		}, n.Env(id))
		n.Attach(sw)
		sw.Start()
		r.switches[id] = sw
	}
	return r
}

// configureGroup pushes a GroupConfig to each member, mimicking the
// controller's setup phase.
func (r *rig) configureGroup(group model.GroupID, designated model.SwitchID, members ...model.SwitchID) {
	for i, m := range members {
		prev := members[(i-1+len(members))%len(members)]
		next := members[(i+1)%len(members)]
		cfg := &openflow.GroupConfig{
			Group:             group,
			Members:           members,
			Designated:        designated,
			RingPrev:          prev,
			RingNext:          next,
			SyncInterval:      5 * time.Second,
			KeepAliveInterval: time.Second,
			Version:           1,
		}
		r.switches[m].HandleMessage(model.ControllerNode, cfg)
	}
}

func pkt(src, dst model.HostID, seq int) *model.Packet {
	return &model.Packet{
		SrcMAC:  model.HostMAC(src),
		DstMAC:  model.HostMAC(dst),
		SrcIP:   model.HostIP(src),
		DstIP:   model.HostIP(dst),
		VLAN:    1,
		Ether:   model.EtherTypeIPv4,
		Bytes:   1000,
		FlowSeq: seq,
	}
}

func TestLocalDelivery(t *testing.T) {
	r := newRig(t, 1)
	sw := r.switches[1]
	sw.AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	sw.AttachHost(model.HostMAC(11), model.HostIP(11), 1)
	sw.InjectLocal(pkt(10, 11, 0))
	r.sim.RunFor(2 * time.Second)
	if len(r.delivered[1]) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(r.delivered[1]))
	}
	if sw.Stats().Delivered != 1 {
		t.Errorf("Stats().Delivered = %d", sw.Stats().Delivered)
	}
}

func TestPacketInWhenUnknown(t *testing.T) {
	r := newRig(t, 1)
	sw := r.switches[1]
	sw.AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	sw.InjectLocal(pkt(10, 99, 0))
	r.sim.RunFor(2 * time.Second)
	pins := r.ctrl.packetIns()
	if len(pins) != 1 {
		t.Fatalf("controller got %d PacketIns, want 1", len(pins))
	}
	if pins[0].Switch != 1 || pins[0].Reason != openflow.ReasonNoMatch {
		t.Errorf("PacketIn = %+v", pins[0])
	}
	if len(r.delivered[1]) != 0 {
		t.Error("unknown packet delivered locally")
	}
}

func TestGFIBPathDelivers(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	r.switches[3].AttachHost(model.HostMAC(30), model.HostIP(30), 1)
	r.configureGroup(1, 2, 1, 2, 3)
	// Let advertisement + dissemination complete.
	r.sim.RunFor(12 * time.Second)

	if r.switches[1].GFIB().Len() != 2 {
		t.Fatalf("switch 1 G-FIB has %d filters, want 2", r.switches[1].GFIB().Len())
	}
	p := pkt(10, 30, 0)
	p.Injected = r.sim.Now().Duration()
	r.switches[1].InjectLocal(p)
	r.sim.RunFor(time.Second)
	if len(r.delivered[3]) != 1 {
		t.Fatalf("switch 3 delivered %d, want 1", len(r.delivered[3]))
	}
	got := r.delivered[3][0].p
	if got.Encapsulated() {
		t.Error("delivered packet still encapsulated")
	}
	if got.Bytes != 1000 {
		t.Errorf("delivered bytes = %d, want 1000 (encap overhead removed)", got.Bytes)
	}
	// No controller involvement for intra-group traffic.
	if len(r.ctrl.packetIns()) != 0 {
		t.Errorf("controller saw %d PacketIns for intra-group flow", len(r.ctrl.packetIns()))
	}
}

func TestIntraGroupColdCacheLatency(t *testing.T) {
	r := newRig(t, 1, 2)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	r.configureGroup(1, 1, 1, 2)
	r.sim.RunFor(12 * time.Second)

	start := r.sim.Now().Duration()
	p := pkt(10, 20, 0)
	p.Injected = start
	r.switches[1].InjectLocal(p)
	r.sim.RunFor(time.Second)
	if len(r.delivered[2]) != 1 {
		t.Fatalf("not delivered")
	}
	// First packet path: slow path (150µs) + data link (350µs + ≤10%
	// jitter): sub-millisecond — the paper's §V-E cold-cache band for
	// intra-group traffic (0.83 ms), an order of magnitude below the
	// OpenFlow controller round trip.
	latency := r.delivered[2][0].at - start
	if latency < 400*time.Microsecond || latency > 1500*time.Microsecond {
		t.Errorf("cold-cache intra-group latency = %v, want sub-1.5ms", latency)
	}
	if r.switches[1].Stats().EncapSent != 1 {
		t.Errorf("EncapSent = %d, want 1", r.switches[1].Stats().EncapSent)
	}
}

func TestFlowRuleEncapForwarding(t *testing.T) {
	r := newRig(t, 1, 2)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	// Controller installs an inter-group rule on switch 1.
	r.switches[1].HandleMessage(model.ControllerNode, &openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Match:       openflow.ExactDst(model.HostMAC(20), 1),
		Priority:    10,
		IdleTimeout: time.Minute,
		Actions:     []openflow.Action{openflow.Encap(2)},
	})
	r.switches[1].InjectLocal(pkt(10, 20, 0))
	r.sim.RunFor(2 * time.Second)
	if len(r.delivered[2]) != 1 {
		t.Fatalf("rule-forwarded packet not delivered")
	}
	if r.switches[1].FlowCount() != 1 {
		t.Errorf("FlowCount = %d", r.switches[1].FlowCount())
	}
	if len(r.ctrl.packetIns()) != 0 {
		t.Error("rule hit still sent PacketIn")
	}
}

func TestFlowRuleExpiry(t *testing.T) {
	r := newRig(t, 1, 2)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[1].HandleMessage(model.ControllerNode, &openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Match:       openflow.ExactDst(model.HostMAC(20), 1),
		Priority:    10,
		IdleTimeout: time.Second,
		Actions:     []openflow.Action{openflow.Encap(2)},
	})
	r.sim.RunFor(5 * time.Second)
	// Expired rule: the packet misses and goes to the controller.
	r.switches[1].InjectLocal(pkt(10, 20, 0))
	r.sim.RunFor(2 * time.Second)
	if len(r.ctrl.packetIns()) != 1 {
		t.Errorf("expired rule: PacketIns = %d, want 1", len(r.ctrl.packetIns()))
	}
	if len(r.delivered[2]) != 0 {
		t.Error("expired rule still forwarded")
	}
}

func TestFalsePositiveDrop(t *testing.T) {
	r := newRig(t, 1, 2)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	// Craft an encapsulated packet to a host switch 2 does NOT have.
	p := pkt(10, 99, 0)
	p.Encap = &model.EncapHeader{SrcSwitch: 1, DstSwitch: 2}
	p.Bytes += model.EncapOverheadBytes
	r.net.Env(1).Send(2, p)
	r.sim.RunFor(2 * time.Second)
	if len(r.delivered[2]) != 0 {
		t.Fatal("false-positive packet delivered")
	}
	if r.switches[2].Stats().FalsePositiveDrops != 1 {
		t.Errorf("FalsePositiveDrops = %d, want 1", r.switches[2].Stats().FalsePositiveDrops)
	}
}

func TestDesignatedAggregationAndReport(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	r.switches[3].AttachHost(model.HostMAC(30), model.HostIP(30), 1)
	r.configureGroup(1, 2, 1, 2, 3)
	r.sim.RunFor(25 * time.Second)

	reports := r.ctrl.stateReports()
	if len(reports) == 0 {
		t.Fatal("no state reports reached the controller")
	}
	last := reports[len(reports)-1]
	if last.Group != 1 {
		t.Errorf("report group = %v", last.Group)
	}
	// All three members' L-FIBs reach the controller. Reports are deltas
	// (a snapshot is attached only when its version moved), so aggregate
	// over the whole report stream.
	origins := map[model.SwitchID]bool{}
	for _, rep := range reports {
		for _, u := range rep.LFIBs {
			origins[u.Origin] = true
		}
	}
	for _, id := range []model.SwitchID{1, 2, 3} {
		if !origins[id] {
			t.Errorf("no report carried the L-FIB of %v (have %v)", id, origins)
		}
	}
	// Steady state: with no L-FIB churn, reports after the first must be
	// pure deltas (zero snapshots) — except every refreshEveryRounds-th
	// round, which is deliberately a full anti-entropy refresh. Require
	// at least one later report to be a pure delta.
	pureDelta := false
	for _, rep := range reports[1:] {
		if len(rep.LFIBs) == 0 {
			pureDelta = true
			break
		}
	}
	if !pureDelta {
		t.Error("no steady-state report was a pure delta: snapshots are re-encoded every round")
	}
}

func TestPairStatsReported(t *testing.T) {
	r := newRig(t, 1, 2)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	r.configureGroup(1, 1, 1, 2)
	r.sim.RunFor(12 * time.Second)
	// Two first-packets from 1 → 2.
	p := pkt(10, 20, 0)
	r.switches[1].InjectLocal(p)
	r.sim.RunFor(time.Second)
	p2 := pkt(10, 20, 0)
	p2.SrcMAC = model.HostMAC(10)
	r.switches[1].InjectLocal(p2)
	r.sim.RunFor(30 * time.Second)

	found := false
	for _, rep := range r.ctrl.stateReports() {
		for _, pair := range rep.Pairs {
			if model.MakeSwitchPair(pair.A, pair.B) == model.MakeSwitchPair(1, 2) && pair.NewFlows >= 2 {
				found = true
			}
		}
	}
	if !found {
		t.Error("pair stats for (1,2) never reported to controller")
	}
}

// TestPairStatsLeaveInOrder pins the order pair statistics leave a
// switch in: by B in a member's advertisement, by (A, B) in the
// designated switch's report, whatever order the maps behind them
// iterate in. Map order would make a report's bytes, and the order the
// controller folds its pairs into the intensity matrix, differ from
// run to run.
func TestPairStatsLeaveInOrder(t *testing.T) {
	r := newRig(t, 1, 2)
	r.configureGroup(1, 1, 1, 2)
	r.sim.RunFor(12 * time.Second)
	var sent []*openflow.StateReport
	r.net.Observer = func(from, to model.SwitchID, msg netsim.Message, delivered bool) {
		if m, ok := msg.(*openflow.StateReport); ok && !delivered && len(m.Pairs) > 0 {
			sent = append(sent, m)
		}
	}
	member, designated := r.switches[2], r.switches[1]
	for b := model.SwitchID(40); b > 28; b-- {
		member.pairFlows[b] = uint32(b)
	}
	member.advertise()
	r.sim.RunFor(time.Second) // the designated switch merges the twelve pairs
	for a := model.SwitchID(60); a > 48; a-- {
		designated.role.pairs[model.MakeSwitchPair(a, a+100)] = uint32(a)
	}
	designated.reportToController()
	r.sim.RunFor(time.Second)

	if len(sent) != 2 || len(sent[0].Pairs) != 12 || len(sent[1].Pairs) != 24 {
		t.Fatalf("want a 12-pair advertisement and a 24-pair report, got %d reports", len(sent))
	}
	for i, m := range sent {
		if !slices.IsSortedFunc(m.Pairs, comparePairs) {
			t.Errorf("report %d: pairs out of order: %v", i, m.Pairs)
		}
	}
}

func TestKeepAliveFailureReport(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	r.configureGroup(1, 1, 1, 2, 3)
	// Let keep-alives flow for a while.
	r.sim.RunFor(5 * time.Second)
	if len(r.ctrl.failureReports()) != 0 {
		t.Fatalf("failure reported with healthy ring: %+v", r.ctrl.failureReports())
	}
	// Kill switch 2; neighbors 1 and 3 must report it.
	r.net.FailNode(2)
	r.sim.RunFor(10 * time.Second)
	reports := r.ctrl.failureReports()
	var sawUp, sawDown bool
	for _, fr := range reports {
		if fr.Suspect != 2 {
			t.Errorf("unexpected suspect %v", fr.Suspect)
		}
		switch fr.Direction {
		case openflow.LossUp:
			sawUp = true
		case openflow.LossDown:
			sawDown = true
		}
	}
	if !sawUp || !sawDown {
		t.Errorf("reports = %+v, want both directions for suspect 2", reports)
	}
}

func TestARPRelayAnswered(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	r.switches[3].AttachHost(model.HostMAC(30), model.HostIP(30), 5)
	r.configureGroup(1, 1, 1, 2, 3)
	r.sim.RunFor(time.Second)
	r.ctrl.got = nil

	arp := &openflow.ARPRelay{
		Tenant: 1,
		Packet: model.Packet{
			SrcMAC:    model.HostMAC(10),
			DstMAC:    model.BroadcastMAC,
			Ether:     model.EtherTypeARP,
			ARPOp:     model.ARPRequest,
			ARPTarget: model.HostIP(30),
			VLAN:      5,
		},
	}
	// Controller relays to the designated switch (1), which fans out.
	r.net.Env(model.ControllerNode).Send(1, arp)
	r.sim.RunFor(time.Second)

	var answer *openflow.LFIBUpdate
	for _, m := range r.ctrl.got {
		if u, ok := m.(*openflow.LFIBUpdate); ok && u.Origin == 3 {
			answer = u
		}
	}
	if answer == nil {
		t.Fatal("owner switch did not answer the ARP relay")
	}
	if len(answer.Entries) != 1 || answer.Entries[0].IP != model.HostIP(30) {
		t.Errorf("answer = %+v", answer)
	}
}

func TestDetachHostStopsDelivery(t *testing.T) {
	r := newRig(t, 1)
	sw := r.switches[1]
	sw.AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	sw.AttachHost(model.HostMAC(11), model.HostIP(11), 1)
	sw.DetachHost(model.HostMAC(11))
	sw.InjectLocal(pkt(10, 11, 0))
	r.sim.RunFor(2 * time.Second)
	if len(r.delivered[1]) != 0 {
		t.Error("packet delivered to detached host")
	}
	if len(r.ctrl.packetIns()) != 1 {
		t.Error("packet for detached host not escalated to controller")
	}
}

// TestPostRebootFilterAccepted pins the incarnation epoch at the edge:
// a peer's full filter built after its reboot (epoch advanced, change
// counter restarted) must pass the stale-version guard even though the
// receiver holds a filter stamped with a large pre-reboot counter —
// while a genuinely old filter is still refused.
func TestPostRebootFilterAccepted(t *testing.T) {
	r := newRig(t, 1, 2)
	r.configureGroup(1, 1, 1, 2)
	r.sim.RunFor(time.Second)
	sw := r.switches[1]

	peer := fib.NewLFIB()
	for i := 100; i < 150; i++ {
		peer.Learn(model.HostMAC(model.HostID(i)), model.HostIP(model.HostID(i)), 1, 1, 0)
	}
	install := func(l *fib.LFIB) {
		data, err := fib.FilterBytesFromWireEntries(l.WireEntries(), fib.DefaultFilterBits, fib.DefaultFilterHashes)
		if err != nil {
			t.Fatal(err)
		}
		sw.handleGFIBUpdate(&openflow.GFIBUpdate{
			Group:   1,
			Filters: []openflow.GFIBFilter{{Switch: 2, Filter: data, Version: l.Version()}},
			Version: 1,
		})
	}
	install(peer)
	pre := peer.Version()
	if held, ok := sw.gfib.PeerVersion(2); !ok || held != pre {
		t.Fatalf("pre-reboot filter not installed (held=%d ok=%v)", held, ok)
	}

	// An older full filter (late arrival from a slower sender) is
	// refused — the guard this test protects.
	stale := fib.NewLFIB()
	stale.Learn(model.HostMAC(99), model.HostIP(99), 1, 1, 0)
	install(stale)
	if held, _ := sw.gfib.PeerVersion(2); held != pre {
		t.Fatalf("stale filter regressed held version to %d", held)
	}

	// The peer reboots: few entries, tiny change counter, but a higher
	// epoch. Its filter must be adopted immediately.
	peer.Restart()
	peer.Learn(model.HostMAC(100), model.HostIP(100), 1, 1, 0)
	post := peer.Version()
	if post <= pre {
		t.Fatalf("post-reboot version %d not above pre-reboot %d", post, pre)
	}
	install(peer)
	if held, _ := sw.gfib.PeerVersion(2); held != post {
		t.Errorf("post-reboot filter refused: held %d, want %d", held, post)
	}
}
