package edge

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"lazyctrl/internal/fib"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// filterBytes is the wire form of a default-geometry filter over one host.
func filterBytes(t testing.TB, h model.HostID) []byte {
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
	update.Filters = append(update.Filters,
		openflow.GFIBFilter{Switch: 2, Filter: data, Version: 1},
		openflow.GFIBFilter{Switch: 3, Filter: data, Version: 1})
	sw.HandleMessage(2, update)

	if got, want := sw.GFIB().Peers(), []model.SwitchID{2, 3}; !slices.Equal(got, want) {
		t.Fatalf("G-FIB peers = %v, want %v (members only)", got, want)
	}
}

// TestGFIBNackAnsweredOnlyToOrigin: the designated switch ignores a
// NACK whose Origin is not the member that sent it or is outside its
// group view, answers the same NACK from its origin, and never sends
// the origin its own filter.
func TestGFIBNackAnsweredOnlyToOrigin(t *testing.T) {
	r := newRig(t, 1, 2, 3, 4)
	for _, h := range []model.HostID{10, 20, 30} {
		r.switches[model.SwitchID(uint32(h)/10)].AttachHost(model.HostMAC(h), model.HostIP(h), 1)
	}
	r.configureGroup(1, 1, 1, 2, 3)
	r.sim.RunFor(12 * time.Second) // designated 1 has disseminated every filter
	designated := r.switches[1]
	resent := func(from model.SwitchID, nack *openflow.GFIBNack) int {
		fulls, _ := r.gfibItems(1, func() { designated.HandleMessage(from, nack) })
		return fulls
	}

	nack := &openflow.GFIBNack{Group: 1, Origin: 3, Peers: []model.SwitchID{2}}
	if got := resent(2, nack); got != 0 {
		t.Errorf("NACK from 2 naming 3 resent %d filters, want 0", got)
	}
	if got := resent(3, nack); got != 1 {
		t.Errorf("NACK from its origin resent %d filters, want 1", got)
	}
	if got := resent(4, &openflow.GFIBNack{Group: 1, Origin: 4, Peers: []model.SwitchID{2, 3}}); got != 0 {
		t.Errorf("NACK from non-member 4 resent %d filters, want 0", got)
	}
	if got := resent(2, &openflow.GFIBNack{Group: 1, Origin: 2, Peers: []model.SwitchID{2, 3}}); got != 1 {
		t.Errorf("NACK from 2 naming 2 and 3 resent %d filters, want 1 (not its own)", got)
	}
}

// TestRestartResendsEveryMember: a GroupConfig that keeps a designated
// switch's membership restarts its delta tracking, so the next
// dissemination carries a version item for every member (a zero-word
// delta: the diff base survived) and the next controller report a leg
// for every member, although no member's L-FIB moved.
func TestRestartResendsEveryMember(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	for _, h := range []model.HostID{10, 20, 30} {
		r.switches[model.SwitchID(uint32(h)/10)].AttachHost(model.HostMAC(h), model.HostIP(h), 1)
	}
	r.configureGroup(1, 1, 1, 2, 3)
	r.sim.RunFor(12 * time.Second) // designated 1 has disseminated and reported every member
	d := r.switches[1]
	if (d.gfibRound+1)%refreshEveryRounds == 0 || (d.ctrlRound+1)%refreshEveryRounds == 0 {
		t.Fatal("setup: the next round is a beacon or anti-entropy round")
	}
	cfg := d.group
	cfg.Version++
	reports := len(r.ctrl.stateReports())
	fulls, deltas := r.gfibItems(1, func() {
		d.HandleMessage(model.ControllerNode, &cfg)
		r.sim.RunFor(3 * time.Second) // the post-config dissemination and report
	})
	if deltas != 3 {
		t.Errorf("restart disseminated %d delta items, want 3 (one per member)", deltas)
	}
	if fulls != 0 {
		t.Errorf("restart disseminated %d full filters, want 0", fulls)
	}
	var origins []model.SwitchID
	for _, sr := range r.ctrl.stateReports()[reports:] {
		for _, u := range sr.LFIBs {
			origins = append(origins, u.Origin)
		}
	}
	if want := []model.SwitchID{1, 2, 3}; !slices.Equal(origins, want) {
		t.Errorf("report legs after restart = %v, want %v", origins, want)
	}
}

// TestDisseminationDeltaAgainstEncodedFull: the designated switch ships
// a changed member filter as a delta whenever the delta item is smaller
// than the encoded full item, the marshaled filter with its header. For
// the 2,048-byte default filter a 205-word diff is a 2,072-byte delta
// against a 2,084-byte full item.
func TestDisseminationDeltaAgainstEncodedFull(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	r.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	r.configureGroup(1, 1, 1, 2, 3)
	r.sim.RunFor(12 * time.Second) // designated 1 has disseminated S2's filter
	d := r.switches[1]
	rec := d.role.members[2]
	if rec == nil {
		t.Fatal("setup: designated never disseminated S2's filter")
	}
	if v, built := rec.filter.Version(); !built || v != rec.version {
		t.Fatal("setup: designated never disseminated S2's filter")
	}
	sent := fib.FilterFromWireEntries(rec.snapshot, fib.DefaultFilterBits, fib.DefaultFilterHashes)

	// Grow S2's snapshot, skipping hosts that would overshoot, until its
	// rebuilt filter differs from the disseminated one in 205 words.
	const want = 205
	snapshot := slices.Clone(rec.snapshot)
	for h := model.HostID(1000); ; h++ {
		if h == 100_000 {
			t.Fatalf("no snapshot found with a %d-word diff", want)
		}
		next := append(slices.Clone(snapshot), openflow.LFIBEntry{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1})
		words, err := fib.FilterFromWireEntries(next, fib.DefaultFilterBits, fib.DefaultFilterHashes).DiffWords(sent)
		if err != nil {
			t.Fatal(err)
		}
		if len(words) > want {
			continue
		}
		snapshot = next
		if len(words) == want {
			break
		}
	}
	rec.snapshot = snapshot
	rec.version++

	fulls, deltas := r.gfibItems(1, func() {
		d.disseminateGFIB()
		r.sim.RunFor(time.Second)
	})
	if deltas != 1 || fulls != 0 {
		t.Errorf("disseminated %d delta items and %d full filters, want 1 and 0", deltas, fulls)
	}
	if v, _ := r.switches[3].GFIB().PeerVersion(2); v != rec.version {
		t.Errorf("S3 holds S2's filter at version %d, want the delta's %d", v, rec.version)
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
	if st := sw.Stats(); st.EncapSent != 4 {
		t.Errorf("EncapSent = %d, want 4 (two copies per packet)", st.EncapSent)
	}
	for id := model.SwitchID(2); id <= 5; id++ {
		if n := r.switches[id].Stats().FalsePositiveDrops; n != 0 {
			t.Errorf("switch %d dropped %d misdirected copies", id, n)
		}
	}
}

// gfibItems counts the G-FIB items sender puts on the wire while run
// runs: full filters and word deltas, each message counted once however
// many members it goes to.
func (r *rig) gfibItems(sender model.SwitchID, run func()) (fulls, deltas int) {
	seen := make(map[netsim.Message]bool)
	r.net.Observer = func(from, _ model.SwitchID, msg netsim.Message, delivered bool) {
		if from != sender || delivered || seen[msg] {
			return
		}
		seen[msg] = true
		var msgs []openflow.Message
		if b, ok := msg.(*openflow.Batch); ok {
			msgs = b.Msgs
		} else if m, ok := msg.(openflow.Message); ok {
			msgs = []openflow.Message{m}
		}
		for _, m := range msgs {
			switch m := m.(type) {
			case *openflow.GFIBUpdate:
				fulls += len(m.Filters)
			case *openflow.GFIBDelta:
				deltas += len(m.Deltas)
			}
		}
	}
	defer func() { r.net.Observer = nil }()
	run()
	return fulls, deltas
}

// TestGFIBUpdateAtHeldVersionSkipped pins that a full filter at the
// version a switch already holds is not installed: filters at one
// version are byte-identical whichever sender built them, so even an
// update carrying other bytes at that version leaves the held filter
// and every query answer as they were. A newer version installs.
func TestGFIBUpdateAtHeldVersionSkipped(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	sw := r.switches[1]
	r.configureGroup(1, 2, 1, 2, 3)
	update := func(h model.HostID, version uint64) {
		sw.HandleMessage(2, &openflow.GFIBUpdate{Group: 1, Version: 1, Filters: []openflow.GFIBFilter{
			{Switch: 2, Filter: filterBytes(t, h), Version: version},
		}})
	}
	// answers lists the hosts among the first 2,000 the G-FIB places on
	// switch 2.
	answers := func() []model.HostID {
		var out []model.HostID
		for h := model.HostID(1); h <= 2000; h++ {
			if slices.Equal(sw.GFIB().AppendQuery(nil, model.HostMAC(h)), []model.SwitchID{2}) {
				out = append(out, h)
			}
		}
		return out
	}
	update(20, 5)
	held := answers()
	if !slices.Contains(held, 20) || slices.Contains(held, 30) {
		t.Fatalf("after installing host 20's filter the G-FIB places %v on switch 2", held)
	}
	update(30, 5)
	if got := answers(); !slices.Equal(got, held) {
		t.Errorf("an update at the held version changed the answers from %v to %v", held, got)
	}
	if v, _ := sw.GFIB().PeerVersion(2); v != 5 {
		t.Errorf("held version %d, want 5", v)
	}
	update(30, 6)
	if got := answers(); !slices.Contains(got, 30) || slices.Contains(got, 20) {
		t.Errorf("after a newer update the G-FIB places %v on switch 2, want host 30's filter", got)
	}
	if v, _ := sw.GFIB().PeerVersion(2); v != 6 {
		t.Errorf("held version %d, want 6", v)
	}
}
