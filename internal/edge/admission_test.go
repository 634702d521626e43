package edge

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// admitEnv is a netsim.Env for the admission tests: time stands still,
// timers never fire, and sends are recorded.
type admitEnv struct{ sent []admitSend }

type admitSend struct {
	to  model.SwitchID
	msg netsim.Message
}

func (e *admitEnv) Now() time.Duration                 { return time.Second }
func (e *admitEnv) After(time.Duration, func()) func() { return func() {} }
func (e *admitEnv) Every(time.Duration, func()) func() { return func() {} }
func (e *admitEnv) Send(to model.SwitchID, m netsim.Message) {
	e.sent = append(e.sent, admitSend{to, m})
}

// admitGen is the generation the fixture's master configured it at.
const admitGen = 2

// admitConfig is S1's view of group 1 = {1, 2, 3}.
func admitConfig(designated model.SwitchID, version, gen uint64) *openflow.GroupConfig {
	return &openflow.GroupConfig{
		Group:             1,
		Members:           []model.SwitchID{1, 2, 3},
		Designated:        designated,
		RingPrev:          3,
		RingNext:          2,
		SyncInterval:      5 * time.Second,
		KeepAliveInterval: time.Second,
		Version:           version,
		Generation:        gen,
	}
}

func hostEntries(h model.HostID) []openflow.LFIBEntry {
	return []openflow.LFIBEntry{{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1}}
}

// admitFixture is switch S1 of group 1 = {1, 2, 3}, configured by the
// master at generation admitGen, with host 10 attached and a G-FIB
// filter for each peer. A designated S1 also holds every member's
// snapshot and disseminated filter, so the reports and NACKs it admits
// change something.
func admitFixture(t testing.TB, designated model.SwitchID) (*Switch, *admitEnv) {
	t.Helper()
	env := &admitEnv{}
	s := New(Config{ID: 1}, env)
	s.AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	s.HandleMessage(model.ControllerNode, admitConfig(designated, 1, admitGen))
	if designated == 1 {
		for _, m := range []model.SwitchID{2, 3} {
			s.HandleMessage(m, &openflow.StateReport{Group: 1, Version: 1, LFIBs: []openflow.LFIBUpdate{
				{Origin: m, Full: true, Version: 1, Entries: hostEntries(model.HostID(m) * 10)},
			}})
		}
		s.disseminateGFIB()
	} else {
		s.HandleMessage(designated, &openflow.GFIBUpdate{Group: 1, Version: 1, Filters: []openflow.GFIBFilter{
			{Switch: 2, Filter: filterBytes(t, 20), Version: 1},
			{Switch: 3, Filter: filterBytes(t, 30), Version: 1},
		}})
	}
	if s.GFIB().Len() != 2 || s.CtrlGeneration() != admitGen {
		t.Fatalf("fixture holds %d filters at generation %d", s.GFIB().Len(), s.CtrlGeneration())
	}
	env.sent = nil
	return s, env
}

// admitSnapshot renders everything a message could change on the
// switch except StaleGenRejected, which the fence may bump.
func admitSnapshot(s *Switch) string {
	var b strings.Builder
	st := s.Stats()
	st.StaleGenRejected = 0
	fmt.Fprintf(&b, "%+v\ngen=%d master=%v group=%+v/%v flows=%d lfib=%d\n", st, s.ctrlGen, s.master, s.group, s.haveGroup, s.flows.len(), s.lfib.Version())
	fmt.Fprintf(&b, "ka=%v/%v degraded=%v esc=%d pairs=%v ring=%v adv=%+v\n", s.ctrlKASeen, s.ctrlLastKA, s.degraded, len(s.escPending), s.pairFlows, s.ring, s.adv)
	for i := 0; i < s.gfib.Len(); i++ {
		peer, v := s.gfib.At(i)
		fmt.Fprintf(&b, "gfib %v@%d %x\n", peer, v, s.gfib.AppendFilter(nil, i))
	}
	if r := s.role; r != nil {
		fmt.Fprintf(&b, "role evicted=%v pairs=%v restart=%v\n", r.evicted, r.pairs, r.restart)
		for _, m := range s.group.Members {
			if rec := r.members[m]; rec != nil {
				fv, built := rec.filter.Version()
				fmt.Fprintf(&b, "member %v v%d %v reported=%d pending=%v full=%v filter=%d/%v\n",
					m, rec.version, rec.snapshot, rec.reported, rec.pending, rec.needFull, fv, built)
			}
		}
	}
	return b.String()
}

// admitCase is one admission-table probe: a message from a sender,
// delivered to a fresh admitFixture with the given designated switch.
type admitCase struct {
	name       string
	designated model.SwitchID
	from       model.SwitchID
	msg        netsim.Message
	admitted   bool
	// fenced marks a refusal by the generation fence, which counts
	// StaleGenRejected and answers a controller with a RoleAnnounce.
	fenced bool
}

func admitCases(t testing.TB) []admitCase {
	const ctl, sb = model.ControllerNode, model.StandbyNode
	flowMod := &openflow.FlowMod{Command: openflow.FlowAdd, Match: openflow.ExactDst(model.HostMAC(99), 1),
		Actions: []openflow.Action{openflow.Encap(3)}}
	packetOut := &openflow.PacketOut{Actions: []openflow.Action{openflow.Encap(3)}, Packet: *pkt(10, 99, 0)}
	update := func(gen uint64) *openflow.GFIBUpdate {
		return &openflow.GFIBUpdate{Group: 1, Version: 2, Generation: gen, Filters: []openflow.GFIBFilter{
			{Switch: 2, Filter: filterBytes(t, 21), Version: 2},
		}}
	}
	tomb := func(gen uint64) *openflow.GFIBDelta {
		return &openflow.GFIBDelta{Group: 1, Version: 2, Generation: gen, Removals: []model.SwitchID{3}}
	}
	report := func(origin, pairA model.SwitchID) *openflow.StateReport {
		return &openflow.StateReport{Group: 1, Version: 1,
			LFIBs: []openflow.LFIBUpdate{{Origin: origin, Full: true, Version: 2, Entries: hostEntries(21)}},
			Pairs: []openflow.PairStat{{A: pairA, B: 9, NewFlows: 4}}}
	}
	arp := &openflow.ARPRelay{Tenant: 1, Packet: model.Packet{SrcMAC: model.HostMAC(99), DstMAC: model.BroadcastMAC,
		Ether: model.EtherTypeARP, ARPOp: model.ARPRequest, ARPTarget: model.HostIP(10), VLAN: 1}}
	batch := func(gen uint64, msgs ...openflow.Message) *openflow.Batch {
		return &openflow.Batch{Generation: gen, Msgs: msgs}
	}
	return []admitCase{
		{"Packet/anyone", 2, 9999, pkt(99, 10, 0), true, false},

		{"FlowMod/controller", 2, ctl, flowMod, true, false},
		{"FlowMod/switch", 2, 2, flowMod, false, false},
		{"PacketOut/controller", 2, ctl, packetOut, true, false},
		{"PacketOut/switch", 2, 2, packetOut, false, false},

		{"GroupConfig/controller", 2, ctl, admitConfig(3, 2, admitGen), true, false},
		{"GroupConfig/designated resync", 2, 2, admitConfig(2, 1, admitGen), true, false},
		{"GroupConfig/switch not the designated", 2, 3, admitConfig(2, 2, admitGen), false, false},
		{"GroupConfig/stale controller", 2, ctl, admitConfig(3, 2, admitGen-1), false, true},
		{"GroupConfig/switch raising the generation", 2, 2, admitConfig(2, 2, admitGen+1), false, true},

		{"GFIBUpdate/designated", 2, 2, update(0), true, false},
		{"GFIBUpdate/controller", 2, ctl, update(admitGen), true, false},
		{"GFIBUpdate/stale controller", 2, ctl, update(admitGen - 1), false, true},
		{"GFIBUpdate/switch raising the generation", 2, 2, update(admitGen + 1), false, true},
		{"GFIBDelta/designated", 2, 2, tomb(0), true, false},
		{"GFIBDelta/controller", 2, ctl, tomb(admitGen), true, false},
		{"GFIBDelta/stale controller", 2, ctl, tomb(admitGen - 1), false, true},
		{"GFIBDelta/switch raising the generation", 2, 2, tomb(admitGen + 1), false, true},

		{"StateReport/member's own", 1, 2, report(2, 2), true, false},
		{"StateReport/leg of another origin", 1, 2, report(3, 2), false, false},
		{"StateReport/pair not naming the sender", 1, 2, report(2, 3), false, false},

		{"GFIBNack/member's own", 1, 2, &openflow.GFIBNack{Group: 1, Origin: 2, Peers: []model.SwitchID{3}}, true, false},
		{"GFIBNack/another origin", 1, 2, &openflow.GFIBNack{Group: 1, Origin: 3, Peers: []model.SwitchID{2}}, false, false},
		{"GFIBNack/non-member", 1, 4, &openflow.GFIBNack{Group: 1, Origin: 4, Peers: []model.SwitchID{2, 3}}, false, false},

		{"RoleAnnounce/takeover", 2, sb, &openflow.RoleAnnounce{From: sb, Generation: admitGen + 1}, true, false},
		{"RoleAnnounce/switch", 2, 2, &openflow.RoleAnnounce{From: 2, Generation: 99}, false, false},
		{"RoleAnnounce/switch naming a controller", 2, 2, &openflow.RoleAnnounce{From: ctl, Generation: 99}, false, false},
		{"RoleAnnounce/controller naming the other", 2, sb, &openflow.RoleAnnounce{From: ctl, Generation: admitGen + 1}, false, false},

		{"ARPRelay/controller", 2, ctl, arp, true, false},
		{"ARPRelay/designated", 2, 2, arp, true, false},
		{"ARPRelay/member not the designated", 2, 3, arp, false, false},

		{"KeepAlive/ring neighbor", 2, 2, &openflow.KeepAlive{From: 2, Seq: 1}, true, false},
		{"KeepAlive/controller", 2, ctl, &openflow.KeepAlive{From: ctl, Seq: 1, Generation: admitGen}, true, false},
		{"KeepAlive/switch naming the controller", 2, 2, &openflow.KeepAlive{From: ctl, Seq: 1, Generation: 99}, false, false},
		{"KeepAlive/stale controller", 2, ctl, &openflow.KeepAlive{From: ctl, Seq: 1, Generation: admitGen - 1}, false, true},
		{"KeepAlive/switch raising the generation", 2, 2, &openflow.KeepAlive{From: 2, Seq: 1, Generation: 99}, false, true},

		{"Batch/controller", 2, ctl, batch(admitGen, admitConfig(3, 2, admitGen), update(admitGen)), true, false},
		{"Batch/designated", 2, 2, batch(0, update(0), tomb(0)), true, false},
		{"Batch/member not the designated", 2, 3, batch(0, update(0), tomb(0)), false, false},
		{"Batch/stale controller", 2, ctl, batch(admitGen-1, admitConfig(3, 2, admitGen-1), update(admitGen-1)), false, true},
	}
}

// TestAdmissionTable probes every row of admit: a message from a
// legitimate sender is admitted, and each clause refuses a message
// that breaks it. A refused message changes no state and sends
// nothing; a fenced stamp only counts StaleGenRejected and, from a
// controller, draws the corrective RoleAnnounce.
func TestAdmissionTable(t *testing.T) {
	for _, tc := range admitCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := admitFixture(t, tc.designated)
			if got := s.admit(tc.from, tc.msg); got != tc.admitted {
				t.Fatalf("admit(%v, %T) = %v, want %v", tc.from, tc.msg, got, tc.admitted)
			}
			if tc.admitted {
				return
			}
			s, env := admitFixture(t, tc.designated)
			before, stale := admitSnapshot(s), s.Stats().StaleGenRejected
			s.HandleMessage(tc.from, tc.msg)
			if after := admitSnapshot(s); after != before {
				t.Errorf("refused message changed state:\nbefore %s\nafter  %s", before, after)
			}
			wantStale, wantSent := uint64(0), 0
			if tc.fenced {
				wantStale = 1
				if model.IsControllerAddr(tc.from) {
					wantSent = 1
				}
			}
			if got := s.Stats().StaleGenRejected - stale; got != wantStale {
				t.Errorf("StaleGenRejected moved by %d, want %d", got, wantStale)
			}
			if len(env.sent) != wantSent {
				t.Fatalf("refused message caused %d sends, want %d: %+v", len(env.sent), wantSent, env.sent)
			}
			if wantSent == 1 {
				ra, ok := env.sent[0].msg.(*openflow.RoleAnnounce)
				if !ok || env.sent[0].to != tc.from || ra.From != model.ControllerNode || ra.Generation != admitGen {
					t.Errorf("fence answered %v with %+v, want the corrective RoleAnnounce", env.sent[0].to, env.sent[0].msg)
				}
			}
		})
	}
}

// TestGenerationRaisedOnlyByController pins read-found bug 17: member
// S2 forging a controller keep-alive, or announcing itself at a future
// generation, raised S1's generation to 99, and the real master's next
// generation-1 push was then fenced.
func TestGenerationRaisedOnlyByController(t *testing.T) {
	for name, forged := range map[string]netsim.Message{
		"KeepAlive":    &openflow.KeepAlive{From: model.ControllerNode, Seq: 1, Generation: 99},
		"RoleAnnounce": &openflow.RoleAnnounce{From: 2, Generation: 99},
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 1, 2, 3)
			r.configureGroup(1, 2, 1, 2, 3)
			s := r.switches[1]
			s.HandleMessage(2, forged)
			if got := s.CtrlGeneration(); got != 0 {
				t.Errorf("forged %s raised the generation to %d", name, got)
			}
			cfg := admitConfig(3, 2, 1)
			s.HandleMessage(model.ControllerNode, cfg)
			if got := s.Group().Version; got != 2 {
				t.Errorf("master's generation-1 push fenced: group version %d, want 2", got)
			}
			if got := s.Stats().StaleGenRejected; got != 0 {
				t.Errorf("StaleGenRejected = %d, want 0", got)
			}
		})
	}
}

// TestRulesInstalledOnlyByController pins read-found bug 18: a FlowMod
// from member S2 installed a rule on S1, and a PacketOut from S2 was
// applied.
func TestRulesInstalledOnlyByController(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	r.configureGroup(1, 2, 1, 2, 3)
	s := r.switches[1]
	s.HandleMessage(2, &openflow.FlowMod{Command: openflow.FlowAdd, Match: openflow.ExactDst(model.HostMAC(99), 1),
		Actions: []openflow.Action{openflow.Encap(3)}})
	if got := s.FlowCount(); got != 0 {
		t.Errorf("FlowMod from S2 installed %d rules, want 0", got)
	}
	s.HandleMessage(2, &openflow.PacketOut{Actions: []openflow.Action{openflow.Encap(3)}, Packet: *pkt(10, 99, 0)})
	if got := s.Stats().EncapSent; got != 0 {
		t.Errorf("PacketOut from S2 applied: EncapSent = %d, want 0", got)
	}
	s.HandleMessage(model.ControllerNode, &openflow.PacketOut{Actions: []openflow.Action{openflow.Encap(3)}, Packet: *pkt(10, 99, 0)})
	if got := s.Stats().EncapSent; got != 1 {
		t.Errorf("controller's PacketOut: EncapSent = %d, want 1", got)
	}
}

// hostileSenders are the senders every received type is tried from:
// two IDs of no switch (one the zero address), a switch outside the
// group, each controller address, the designated peer, a plain member
// and the receiver itself.
var hostileSenders = []model.SwitchID{9999, model.NoSwitch, 4, model.ControllerNode, model.StandbyNode, 2, 3, 1}

// hostileMessages is one message per type the edge receives, each
// naming the sender where an identity field must, and switches outside
// the group wherever the payload lets it.
func hostileMessages(t testing.TB, from model.SwitchID) []openflow.Message {
	ghosts := []model.SwitchID{4, 9999, from}
	var filters []openflow.GFIBFilter
	var deltas []openflow.GFIBFilterDelta
	for _, g := range ghosts {
		filters = append(filters, openflow.GFIBFilter{Switch: g, Filter: filterBytes(t, 40), Version: 7})
		deltas = append(deltas, openflow.GFIBFilterDelta{Switch: g, BaseVersion: 0, TargetVersion: 7})
	}
	config := admitConfig(from, 9, 0)
	return []openflow.Message{
		&openflow.FlowMod{Command: openflow.FlowAdd, Match: openflow.Match{}, Actions: []openflow.Action{openflow.Encap(9999)}},
		&openflow.PacketOut{Actions: []openflow.Action{openflow.Encap(9999), openflow.Flood()}, Packet: *pkt(99, 10, 0)},
		config,
		&openflow.GFIBUpdate{Group: 1, Version: 7, Filters: filters},
		&openflow.GFIBUpdate{Group: 1, Version: 7, Generation: 99, Filters: filters},
		&openflow.GFIBDelta{Group: 1, Version: 7, Deltas: deltas, Removals: ghosts},
		&openflow.StateReport{Group: 1, Version: 7,
			LFIBs: []openflow.LFIBUpdate{{Origin: from, Full: true, Version: 7, Entries: hostEntries(40)}, {Origin: from, Version: 8}},
			Pairs: []openflow.PairStat{{A: from, B: 9999, NewFlows: 1}}},
		&openflow.GFIBNack{Group: 1, Origin: from, Peers: ghosts},
		&openflow.RoleAnnounce{From: from, Generation: 99},
		&openflow.ARPRelay{Tenant: 1, Packet: model.Packet{DstMAC: model.BroadcastMAC, Ether: model.EtherTypeARP, ARPOp: model.ARPRequest, ARPTarget: model.HostIP(10), VLAN: 1}},
		&openflow.KeepAlive{From: from, Seq: 1, Generation: 99},
		&openflow.KeepAlive{From: model.ControllerNode, Seq: 1},
		&openflow.Batch{Generation: 99, Msgs: []openflow.Message{config, &openflow.GFIBUpdate{Group: 1, Version: 7, Filters: filters}}},
	}
}

// checkEdgeBounds asserts the switch's tables stayed within the group:
// the G-FIB holds members other than itself only, so at most group − 1
// filters, and the wheel bookkeeping at most its two neighbors.
func checkEdgeBounds(t *testing.T, s *Switch) {
	t.Helper()
	members := s.Group().Members
	if n := s.GFIB().Len(); n > max(len(members)-1, 0) {
		t.Errorf("G-FIB holds %d filters for a group of %d", n, len(members))
	}
	for _, p := range s.GFIB().Peers() {
		if p == s.NodeID() || !slices.Contains(members, p) {
			t.Errorf("G-FIB holds a filter for %v, outside group %v", p, members)
		}
	}
	if len(s.ring) > 2 {
		t.Errorf("ring bookkeeping holds %d neighbors", len(s.ring))
	}
	if r := s.role; r != nil {
		for m := range r.members {
			if !slices.Contains(members, m) {
				t.Errorf("designated switch aggregates %v, outside group %v", m, members)
			}
		}
	}
}

// TestHostileSenders delivers every type the edge receives from every
// hostile sender, to both a member and a designated fixture: nothing
// panics and no table grows past the group.
func TestHostileSenders(t *testing.T) {
	for _, designated := range []model.SwitchID{1, 2} {
		for _, from := range hostileSenders {
			for _, msg := range hostileMessages(t, from) {
				s, _ := admitFixture(t, designated)
				s.HandleMessage(from, msg)
				s.InjectLocal(pkt(10, 40, 0))
				checkEdgeBounds(t, s)
			}
		}
	}
}

// FuzzHandleMessage decodes the input with the openflow codec and
// delivers it from the sender the second argument picks, to a member
// or a designated fixture: nothing may panic and no table may grow
// past the group.
func FuzzHandleMessage(f *testing.F) {
	for i, from := range hostileSenders {
		for _, msg := range hostileMessages(f, from) {
			data, err := openflow.Encode(msg, 0)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data, uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, sender uint8) {
		msg, _, err := openflow.Decode(data)
		if err != nil {
			return
		}
		s, _ := admitFixture(t, model.SwitchID(1+sender/128))
		s.HandleMessage(hostileSenders[int(sender)%len(hostileSenders)], msg)
		checkEdgeBounds(t, s)
	})
}
