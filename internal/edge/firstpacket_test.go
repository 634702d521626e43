package edge

import (
	"testing"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
)

// sinkNode stands in for the controller and keeps nothing.
type sinkNode struct{ got int }

func (c *sinkNode) NodeID() model.SwitchID                       { return model.ControllerNode }
func (c *sinkNode) HandleMessage(model.SwitchID, netsim.Message) { c.got++ }

// TestFirstPacketAllocations pins the objects a first packet costs on
// each branch of the edge data path, delivery at the far switch
// included: the overlay packet and its header are one slot of a
// block, as is a lone PacketIn, so a branch that sends costs
// at most a tenth of an object; the far switch decapsulates into a
// local, a PacketOut is read in place, the single-candidate slow path
// queues by value instead of building a closure, a one-packet PacketIn
// window keeps its buffers and its timer is a value, and a rule
// re-installed over its key takes no new entry.
func TestFirstPacketAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	ctrl := &sinkNode{}
	n.Attach(ctrl)
	// No periodic round falls inside the measurement.
	const never = 1000 * time.Hour
	var delivered [3]int
	switches := make(map[model.SwitchID]*Switch)
	for _, id := range []model.SwitchID{1, 2} {
		sw := New(Config{
			ID:                id,
			AdvertiseInterval: never,
			ReportInterval:    never,
			PacketInBatchMax:  8,
			OnDeliver:         func(*model.Packet, time.Duration) { delivered[id]++ },
		}, n.Env(id))
		n.Attach(sw)
		switches[id] = sw
	}
	sw1, sw2 := switches[1], switches[2]
	sw1.AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	sw2.AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	sw2.AttachHost(model.HostMAC(30), model.HostIP(30), 1)
	for _, id := range []model.SwitchID{1, 2} {
		switches[id].HandleMessage(model.ControllerNode, &openflow.GroupConfig{
			Group: 1, Members: []model.SwitchID{1, 2}, Designated: 2,
			RingPrev: 3 - id, RingNext: 3 - id, Version: 1,
		})
	}
	sw1.HandleMessage(2, &openflow.GFIBUpdate{Group: 1, Version: 1, Filters: []openflow.GFIBFilter{
		{Switch: 2, Filter: filterBytes(t, 20), Version: 1 << 40},
	}})
	// Host 30 is reached by a controller rule, not the G-FIB.
	sw1.HandleMessage(model.ControllerNode, &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: openflow.ExactDst(model.HostMAC(30), 1),
		IdleTimeout: never, Actions: []openflow.Action{openflow.Encap(2)},
	})
	s.RunFor(time.Second)

	// inject returns a run that injects a fresh copy of p at switch 1
	// and lets the network settle.
	inject := func(p *model.Packet) func() {
		q := new(model.Packet)
		return func() {
			*q = *p
			sw1.InjectLocal(q)
			s.RunFor(10 * time.Millisecond)
		}
	}
	handle := func(sw *Switch, from model.SwitchID, m netsim.Message) func() {
		return func() {
			sw.HandleMessage(from, m)
			s.RunFor(10 * time.Millisecond)
		}
	}
	overlay := pkt(10, 20, 0)
	overlay.Encap = &model.EncapHeader{SrcSwitch: 1, DstSwitch: 2}
	overlay.Bytes += model.EncapOverheadBytes
	rules := 0
	reinstall := &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: openflow.ExactDst(model.HostMAC(30), 1),
		IdleTimeout: never, Actions: []openflow.Action{openflow.Encap(2)},
	}

	// Each branch runs often enough for its blocks to grow to full
	// size in the warm-up and be replaced a few times in the measurement.
	const runs = 320
	const sends = 0.1
	for _, c := range []struct {
		name string
		run  func()
		most float64
		// counts once per run when the branch is taken
		taken *int
	}{
		{"G-FIB single-candidate slow path", inject(pkt(10, 20, 0)), sends, &delivered[2]},
		{"exact-dst rule hit with an Encap action", inject(pkt(10, 30, 0)), sends, &delivered[2]},
		{"PacketOut with Encap", handle(sw1, model.ControllerNode, &openflow.PacketOut{
			Actions: []openflow.Action{openflow.Encap(2)}, Packet: *pkt(10, 20, 0)}), sends, &delivered[2]},
		{"PacketOut with Flood to a local host", handle(sw1, model.ControllerNode, &openflow.PacketOut{
			Actions: []openflow.Action{openflow.Flood()}, Packet: *pkt(20, 10, 0)}), 0, &delivered[1]},
		{"overlay delivery", handle(sw2, 1, overlay), 0, &delivered[2]},
		{"one-packet PacketIn flush", inject(pkt(10, 99, 0)), sends, &ctrl.got},
		{"FlowMod over an installed rule", func() {
			sw1.HandleMessage(model.ControllerNode, reinstall)
			rules += sw1.FlowCount()
		}, 0, &rules},
	} {
		before := *c.taken
		got := testing.AllocsPerRun(1, func() {
			for range runs {
				c.run()
			}
		}) / runs
		// AllocsPerRun runs once more to warm up.
		if taken := *c.taken - before; taken != 2*runs {
			t.Fatalf("%s: the branch was taken %d times in %d runs", c.name, taken, 2*runs)
		}
		if got > c.most {
			t.Errorf("%s: %.3f allocations per first packet, want ≤ %.3f", c.name, got, c.most)
		}
	}
	if st := sw1.Stats(); st.PacketInBursts != 0 || st.FalsePositiveDrops != 0 {
		t.Errorf("stats = %+v: a measured packet took another branch", st)
	}
}

// slowPathRig is switch 1 of group {1, 2, 3} with a G-FIB filter for
// host 20 on switch 2 and host 30 on switch 3, and a meter logging
// every overlay packet switch 1 sends.
type slowPathRig struct {
	*rig
	sends []encapSend
}

type encapSend struct {
	to  model.SwitchID
	dst model.MAC
	at  time.Duration
}

func newSlowPathRig(t *testing.T) *slowPathRig {
	r := &slowPathRig{rig: newRig(t, 1, 2, 3)}
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	r.switches[3].AttachHost(model.HostMAC(30), model.HostIP(30), 1)
	r.configureGroup(1, 2, 1, 2, 3)
	r.switches[1].HandleMessage(2, &openflow.GFIBUpdate{Group: 1, Version: 1, Filters: []openflow.GFIBFilter{
		{Switch: 2, Filter: filterBytes(t, 20), Version: 1 << 40},
		{Switch: 3, Filter: filterBytes(t, 30), Version: 1 << 40},
	}})
	r.net.Meter = func(from, to model.SwitchID, msg netsim.Message) {
		if p, ok := msg.(*model.Packet); ok && from == 1 {
			r.sends = append(r.sends, encapSend{to, p.DstMAC, r.sim.Now().Duration()})
		}
	}
	return r
}

// TestSlowPathSingleCandidatesInOrder injects two single-candidate
// first packets toward different peers inside one slowPathDelay: each
// is encapsulated to its own peer exactly slowPathDelay after its
// injection, in injection order.
func TestSlowPathSingleCandidatesInOrder(t *testing.T) {
	r := newSlowPathRig(t)
	sw := r.switches[1]
	t0 := r.sim.Now().Duration()
	sw.InjectLocal(pkt(10, 20, 0))
	r.sim.RunFor(slowPathDelay / 2)
	t1 := r.sim.Now().Duration()
	sw.InjectLocal(pkt(10, 30, 0))
	r.sim.RunFor(100 * time.Millisecond)

	want := []encapSend{
		{2, model.HostMAC(20), t0 + slowPathDelay},
		{3, model.HostMAC(30), t1 + slowPathDelay},
	}
	if len(r.sends) != len(want) {
		t.Fatalf("switch 1 sent %+v, want %+v", r.sends, want)
	}
	for i := range want {
		if r.sends[i] != want[i] {
			t.Errorf("encap %d = %+v, want %+v", i, r.sends[i], want[i])
		}
	}
	for id, dst := range map[model.SwitchID]model.HostID{2: 20, 3: 30} {
		if got := r.delivered[id]; len(got) != 1 || got[0].p.DstMAC != model.HostMAC(dst) {
			t.Errorf("switch %d delivered %d packets, want exactly the one for host %d", id, len(got), dst)
		}
	}
}

// TestSlowPathEncapSurvivesReboot reboots the switch between a first
// packet's injection and its deferred encap: the encap is still sent,
// at its instant.
func TestSlowPathEncapSurvivesReboot(t *testing.T) {
	r := newSlowPathRig(t)
	sw := r.switches[1]
	t0 := r.sim.Now().Duration()
	sw.InjectLocal(pkt(10, 20, 0))
	r.sim.RunFor(slowPathDelay / 2)
	sw.Reboot()
	r.sim.RunFor(100 * time.Millisecond)
	want := encapSend{2, model.HostMAC(20), t0 + slowPathDelay}
	if len(r.sends) != 1 || r.sends[0] != want {
		t.Fatalf("switch 1 sent %+v, want [%+v]", r.sends, want)
	}
	if len(r.delivered[2]) != 1 {
		t.Errorf("switch 2 delivered %d packets, want 1", len(r.delivered[2]))
	}
}

// TestSlowPathQueueBounded runs a long stream of single-candidate first
// packets that never lets the queue drain, then a burst: the queue's
// storage stays within its growth step (one doubling, 16 slots at
// least) of the most packets ever in flight.
func TestSlowPathQueueBounded(t *testing.T) {
	r := newSlowPathRig(t)
	sw := r.switches[1]
	peak, sent := 0, 0
	inject := func(n int, gap time.Duration) {
		for range n {
			sw.InjectLocal(pkt(10, 20, 0))
			sent++
			peak = max(peak, sent-len(r.sends)) // an encap leaves the queue
			r.sim.RunFor(gap)
		}
	}
	bound := func() int { return peak + max(16, peak) }
	inject(4000, slowPathDelay/8)
	if size := sw.slow.Cap(); peak > 16 || size > bound() {
		t.Errorf("a stream with %d in flight at most left %d slots, want ≤ %d", peak, size, bound())
	}
	inject(1000, 0)
	r.sim.RunFor(time.Second)
	if size := sw.slow.Cap(); size > bound() {
		t.Errorf("a burst of %d in flight left %d slots, want ≤ %d", peak, size, bound())
	}
	if len(r.sends) != sent || len(r.delivered[2]) != sent {
		t.Errorf("sent %d, delivered %d, want %d, %d", len(r.sends), len(r.delivered[2]), sent, sent)
	}
}

// TestPacketOutReadInPlace delivers a controller PacketOut with an
// Encap action, then one with Flood: the switch reads each message's
// packet in place, so the packet must be field for field what it was
// before delivery.
func TestPacketOutReadInPlace(t *testing.T) {
	r := newRig(t, 1, 2)
	r.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	ctrl := r.net.Env(model.ControllerNode)
	for _, c := range []struct {
		action openflow.Action
		pkt    *model.Packet
		at     model.SwitchID // where the packet is delivered
	}{
		{openflow.Encap(2), pkt(10, 20, 0), 2},
		{openflow.Flood(), pkt(20, 10, 0), 1},
	} {
		m := &openflow.PacketOut{Actions: []openflow.Action{c.action}, Packet: *c.pkt}
		before := m.Packet
		ctrl.Send(1, m)
		r.sim.RunFor(100 * time.Millisecond)
		if got := r.delivered[c.at]; len(got) != 1 || got[0].p.DstMAC != before.DstMAC {
			t.Fatalf("action %v: switch %d delivered %d packets, want the PacketOut's", c.action.Type, c.at, len(got))
		}
		if m.Packet != before {
			t.Errorf("action %v: the PacketOut's packet was rewritten: %+v, sent as %+v", c.action.Type, m.Packet, before)
		}
	}
}
