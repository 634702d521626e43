package edge

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"lazyctrl/internal/fib"
	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// filterBytes is the wire form of a default-geometry filter over one host.
func filterBytes(t *testing.T, h model.HostID) []byte {
	t.Helper()
	data, err := fib.FilterBytesFromWireEntries(
		[]openflow.LFIBEntry{{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1}},
		fib.DefaultFilterBits, fib.DefaultFilterHashes)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHostileFilterEncodingsRejected delivers the two well-formed but
// hostile filter encodings of ROADMAP item 4c in a GFIBUpdate and then
// injects a first packet: m = 0 used to panic the next lookup with an
// integer divide by zero, and k = 2³²−1 over an all-ones array made one
// lookup take seconds.
func TestHostileFilterEncodingsRejected(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	sw := r.switches[1]
	sw.AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	r.configureGroup(1, 2, 1, 2, 3)

	blob := func(m uint64, k uint32, words int) []byte {
		b := make([]byte, 20+8*words)
		binary.BigEndian.PutUint64(b[0:8], 0x4c435f4246)
		binary.BigEndian.PutUint64(b[8:16], m)
		binary.BigEndian.PutUint32(b[16:20], k)
		for i := 20; i < len(b); i++ {
			b[i] = 0xff
		}
		return b
	}
	sw.HandleMessage(2, &openflow.GFIBUpdate{Group: 1, Version: 1, Filters: []openflow.GFIBFilter{
		{Switch: 2, Filter: blob(0, 1, 0), Version: 1},
		{Switch: 3, Filter: blob(64, 0xffffffff, 1), Version: 1},
	}})
	if got := sw.GFIB().Len(); got != 0 {
		t.Errorf("G-FIB installed %d hostile filters, want 0", got)
	}
	start := time.Now()
	sw.InjectLocal(pkt(10, 99, 0))
	r.sim.RunFor(time.Second)
	if d := time.Since(start); d > time.Second {
		t.Errorf("first packet after the hostile update took %v", d)
	}
	if got := len(r.ctrl.packetIns()); got != 1 {
		t.Errorf("controller got %d PacketIns, want 1 (no filter, no candidate)", got)
	}
}

// TestGFIBBoundedByMembership pins docs/robustness.md's bound: the
// G-FIB holds at most group size − 1 filters whatever the messages
// name, because only group members get one.
func TestGFIBBoundedByMembership(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	sw := r.switches[1]
	r.configureGroup(1, 2, 1, 2, 3)
	data := filterBytes(t, 20)

	update := &openflow.GFIBUpdate{Group: 1, Version: 1}
	for id := model.SwitchID(100); id < 10_100; id++ {
		update.Filters = append(update.Filters, openflow.GFIBFilter{Switch: id, Filter: data, Version: 1})
	}
	update.Filters = append(update.Filters, openflow.GFIBFilter{Switch: 3, Filter: data, Version: 1})
	sw.HandleMessage(2, update)
	sw.HandleMessage(model.ControllerNode, &openflow.LFIBUpdate{Origin: 500, Full: true, Version: 1,
		Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(50), IP: model.HostIP(50), VLAN: 1}}})
	sw.HandleMessage(model.ControllerNode, &openflow.LFIBUpdate{Origin: 2, Full: true, Version: 1,
		Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(21), IP: model.HostIP(21), VLAN: 1}}})

	if got, want := sw.GFIB().Peers(), []model.SwitchID{2, 3}; !slices.Equal(got, want) {
		t.Fatalf("G-FIB peers = %v, want %v (members only)", got, want)
	}
}

// TestSlowPathTargetSetsNotAliased injects two first packets inside one
// slowPathDelay, each with two G-FIB candidates. The lookup scratch is
// reused by the second lookup before the first encap runs, so each
// deferred encap must own its target set.
func TestSlowPathTargetSetsNotAliased(t *testing.T) {
	r := newRig(t, 1, 2, 3, 4, 5)
	sw := r.switches[1]
	sw.AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	// Host 20 "lives" on 2 and 3, host 40 on 4 and 5: two candidates
	// each, disjoint.
	for _, id := range []model.SwitchID{2, 3} {
		r.switches[id].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	}
	for _, id := range []model.SwitchID{4, 5} {
		r.switches[id].AttachHost(model.HostMAC(40), model.HostIP(40), 1)
	}
	r.configureGroup(1, 2, 1, 2, 3, 4, 5)
	sw.HandleMessage(2, &openflow.GFIBUpdate{Group: 1, Version: 1, Filters: []openflow.GFIBFilter{
		{Switch: 2, Filter: filterBytes(t, 20), Version: 1 << 40},
		{Switch: 3, Filter: filterBytes(t, 20), Version: 1 << 40},
		{Switch: 4, Filter: filterBytes(t, 40), Version: 1 << 40},
		{Switch: 5, Filter: filterBytes(t, 40), Version: 1 << 40},
	}})

	sw.InjectLocal(pkt(10, 20, 0))
	r.sim.RunFor(slowPathDelay / 2)
	sw.InjectLocal(pkt(10, 40, 0))
	r.sim.RunFor(100 * time.Millisecond)

	for id, dst := range map[model.SwitchID]model.HostID{2: 20, 3: 20, 4: 40, 5: 40} {
		got := r.delivered[id]
		if len(got) != 1 || got[0].p.DstMAC != model.HostMAC(dst) {
			t.Errorf("switch %d delivered %d packets, want exactly the one for host %d", id, len(got), dst)
		}
	}
	if st := sw.Stats(); st.EncapSent != 4 || st.GFIBMulticopies != 2 {
		t.Errorf("EncapSent = %d, GFIBMulticopies = %d, want 4 and 2", st.EncapSent, st.GFIBMulticopies)
	}
	for id := model.SwitchID(2); id <= 5; id++ {
		if n := r.switches[id].Stats().FalsePositiveDrops; n != 0 {
			t.Errorf("switch %d dropped %d misdirected copies", id, n)
		}
	}
}
