package edge

import (
	"testing"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

func rule(idle time.Duration, actions ...openflow.Action) flowRule {
	return flowRule{actions: actions, idleTimeout: idle}
}

// hit reports whether p's destination has a live rule at now.
func hit(ft *flowTable, p *model.Packet, now time.Duration) bool {
	_, ok := ft.lookup(p, now)
	return ok
}

func TestFlowTableExactLookup(t *testing.T) {
	ft := newFlowTable()
	ft.install(openflow.ExactDst(model.HostMAC(1), 5), rule(time.Minute, openflow.Encap(2)))
	p := &model.Packet{DstMAC: model.HostMAC(1), VLAN: 5}
	actions, ok := ft.lookup(p, 0)
	if !ok || actions[0].Remote != 2 {
		t.Fatalf("lookup = %+v, %v", actions, ok)
	}
	// VLAN mismatch misses.
	p2 := &model.Packet{DstMAC: model.HostMAC(1), VLAN: 6}
	if hit(ft, p2, 0) {
		t.Error("VLAN mismatch matched exact rule")
	}
}

func TestFlowTableReplace(t *testing.T) {
	ft := newFlowTable()
	m := openflow.ExactDst(model.HostMAC(1), 1)
	ft.install(m, rule(0, openflow.Encap(2)))
	ft.install(m, rule(0, openflow.Encap(3)))
	if ft.len() != 1 {
		t.Fatalf("len = %d after replace, want 1", ft.len())
	}
	p := &model.Packet{DstMAC: model.HostMAC(1), VLAN: 1}
	if actions, ok := ft.lookup(p, 0); !ok || actions[0].Remote != 3 {
		t.Fatalf("replacement not effective: %+v", actions)
	}
}

func TestFlowTableTimeouts(t *testing.T) {
	ft := newFlowTable()
	ft.install(openflow.ExactDst(model.HostMAC(1), 1), rule(time.Second, openflow.Encap(2)))
	ft.install(openflow.ExactDst(model.HostMAC(2), 1), rule(0, openflow.Encap(3)))

	p := &model.Packet{DstMAC: model.HostMAC(1), VLAN: 1}
	// Keep the idle rule warm by hitting it.
	if !hit(ft, p, 500*time.Millisecond) {
		t.Fatal("warm rule missed")
	}
	if !hit(ft, p, 1200*time.Millisecond) {
		t.Fatal("refreshed idle rule expired prematurely")
	}
	// Let it idle out: the lookup evicts it.
	if hit(ft, p, 3*time.Second) {
		t.Error("idle rule not expired")
	}
	if ft.len() != 1 {
		t.Errorf("len = %d after idle eviction, want 1", ft.len())
	}
	// A zero idle timeout never expires.
	if !hit(ft, &model.Packet{DstMAC: model.HostMAC(2), VLAN: 1}, time.Hour) {
		t.Error("rule without idle timeout expired")
	}
}

// TestFlowTableIgnoresUninstalledShapes pins the table to the one rule
// shape the controller installs. A hostile or confused sender's
// wildcard adds, deletes and modifies are ignored: the table cannot be
// grown past one rule per (dstMAC, VLAN), and the installed rule keeps
// forwarding.
func TestFlowTableIgnoresUninstalledShapes(t *testing.T) {
	r := newRig(t, 1, 2)
	sw := r.switches[1]
	sw.AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)

	installed := openflow.ExactDst(model.HostMAC(20), 1)
	sw.HandleMessage(model.ControllerNode, &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: installed, Priority: 100,
		Actions: []openflow.Action{openflow.Encap(2)},
	})
	for i := uint32(0); i < 10_000; i++ {
		sw.HandleMessage(model.ControllerNode, &openflow.FlowMod{
			Command: openflow.FlowAdd,
			Match: openflow.Match{
				Wildcards: openflow.WildcardAll &^ openflow.WildcardSrcIP,
				SrcIP:     model.IP(i),
			},
			Priority: 200,
			Actions:  []openflow.Action{{Type: openflow.ActionTypeDrop}},
		})
	}
	sw.HandleMessage(model.ControllerNode, &openflow.FlowMod{Command: openflow.FlowDelete, Match: installed})
	sw.HandleMessage(model.ControllerNode, &openflow.FlowMod{
		Command: openflow.FlowModify, Match: installed,
		Actions: []openflow.Action{{Type: openflow.ActionTypeDrop}},
	})
	if c := sw.FlowCount(); c != 1 {
		t.Fatalf("FlowCount = %d, want 1 (only the installed exact-destination rule)", c)
	}
	sw.InjectLocal(pkt(10, 20, 0))
	r.sim.RunFor(time.Second)
	if len(r.delivered[2]) != 1 {
		t.Fatalf("installed rule delivered %d packets, want 1", len(r.delivered[2]))
	}
	if st := sw.Stats(); st.EncapSent != 1 || st.PacketIns != 0 {
		t.Errorf("EncapSent %d PacketIns %d, want 1/0", st.EncapSent, st.PacketIns)
	}
}
