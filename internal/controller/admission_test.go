package controller

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// admitEnv is a netsim.Env for the admission tests: time stands still,
// a callback due within a second (respond's processing delay) runs at
// once, a longer timer (push supervision) never fires, and sends are
// recorded.
type admitEnv struct{ sent []model.SwitchID }

func (e *admitEnv) Now() time.Duration { return 0 }

func (e *admitEnv) After(d time.Duration, fn func()) func() {
	if d < time.Second {
		fn()
	}
	return func() {}
}

func (e *admitEnv) Every(time.Duration, func()) func()       { return func() {} }
func (e *admitEnv) Send(to model.SwitchID, _ netsim.Message) { e.sent = append(e.sent, to) }

// replicaRole selects an admitController fixture.
type replicaRole uint8

const (
	master  replicaRole = iota // replicated, Peer: the standby address
	standby                    // Peer: the primary address
	solo                       // no Peer
)

// admitController is a lazy controller over S1–S16, each holding host
// sw·100 in the C-LIB. A master or solo controller is grouped {1,2},
// {3,4} and singletons, with every push supervised; a standby holds
// only the C-LIB.
func admitController(t testing.TB, role replicaRole) (*Controller, *admitEnv) {
	t.Helper()
	env := &admitEnv{}
	cfg := Config{Mode: ModeLazy, Switches: switchList(16), Seed: 7}
	switch role {
	case master:
		cfg.Peer = model.StandbyNode
	case standby:
		cfg.Standby, cfg.Peer = true, model.ControllerNode
	}
	c, err := New(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterTenant(1, 1)
	for sw := model.SwitchID(1); sw <= 16; sw++ {
		h := model.HostID(uint32(sw) * 100)
		c.clib.ApplyLFIB(sw, model.NoGroup, &openflow.LFIBUpdate{Origin: sw, Full: true, Version: 1,
			Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1}}})
	}
	if role != standby {
		m := grouping.NewIntensity()
		m.Add(1, 2, 100)
		m.Add(3, 4, 100)
		m.Add(1, 3, 1)
		if err := c.InitialGrouping(m); err != nil {
			t.Fatal(err)
		}
	}
	env.sent = nil
	return c, env
}

// ctrlSnapshot renders everything a message could change on the
// controller except StaleSyncRejected, which the journal fence may
// bump.
func ctrlSnapshot(c *Controller) string {
	var b strings.Builder
	st := c.stats
	st.StaleSyncRejected = 0
	fmt.Fprintf(&b, "%+v\ngen=%d standby=%v gv=%d takeovers=%d rebuild=%v repush=%v peer=%v/%v/%v/%d\n",
		st, c.generation, c.isStandby, c.groupingVersion, len(c.takeovers), c.rebuildPending, c.awaitingRepush,
		c.peerLastKA, c.peerSeen, c.peerSynced, c.standbySeq)
	fmt.Fprintf(&b, "requests=%d learned=%v pending=%d suspects=%d intensity=%d/%v\n",
		c.reqWindowCount, c.state.learned, c.state.pendingLen(), c.suspects(),
		c.intensity.NumSwitches(), c.intensity.Total())
	for _, sw := range c.cfg.Switches {
		rec := c.sw[sw]
		v, built := rec.filter.Version()
		fmt.Fprintf(&b, "S%v group=%v hosts=%v/%d dead=%v ack=%v/%v suspect=%+v/%v/%v push=%v cfg=%x filters=%v filter=%d/%v\n",
			sw, c.grp.GroupOf(sw), c.clib.EntriesOn(sw), c.clib.VersionOn(sw), rec.dead, rec.lastAck, rec.acked,
			rec.suspect, rec.suspectedAt, rec.suspected, rec.push != nil, rec.pushedCfg, rec.pushedFilters, v, built)
	}
	return b.String()
}

// ctrlCase is one admission-table probe: a message from a sender,
// delivered to a fresh admitController.
type ctrlCase struct {
	name     string
	role     replicaRole
	from     model.SwitchID
	msg      netsim.Message
	admitted bool
	// fenced marks a journal record refused by the generation fence,
	// which counts StaleSyncRejected.
	fenced bool
}

func ctrlCases() []ctrlCase {
	const ghost, ctl, sb = model.SwitchID(9999), model.ControllerNode, model.StandbyNode
	burst := func(ingress model.SwitchID) *openflow.PacketInBurst {
		return &openflow.PacketInBurst{Switch: ingress, Items: []openflow.BurstPacket{
			{Reason: openflow.ReasonNoMatch, Packet: *pkt(1, 300)}, {Reason: openflow.ReasonNoMatch, Packet: *pkt(2, 999)},
		}}
	}
	nack := func(origin model.SwitchID) *openflow.GFIBNack {
		return &openflow.GFIBNack{Group: 1, Origin: origin, Peers: []model.SwitchID{1, 2}}
	}
	answer := func(origin model.SwitchID) *openflow.LFIBUpdate {
		return &openflow.LFIBUpdate{Origin: origin, Version: 2,
			Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(42), IP: model.HostIP(42), VLAN: 1}}}
	}
	report := &openflow.StateReport{Group: 1, Version: 2,
		LFIBs: []openflow.LFIBUpdate{{Origin: 2, Full: true, Version: 2,
			Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(43), IP: model.HostIP(43), VLAN: 1}}}},
		Pairs: []openflow.PairStat{{A: 1, B: 9, NewFlows: 5}}}
	failure := func(observer, suspect model.SwitchID) *openflow.FailureReport {
		return &openflow.FailureReport{Observer: observer, Suspect: suspect, Direction: openflow.LossUp, MissedSeq: 3}
	}
	tombstone := func(gen uint64) *openflow.StateSyncRecord {
		return &openflow.StateSyncRecord{Kind: openflow.SyncTombstone, Generation: gen, GroupingVersion: 5, Origin: 3, Full: true}
	}
	return []ctrlCase{
		{"PacketIn/ingress", master, 3, pin(3), true, false},
		{"PacketIn/ingress not the sender", master, 3, pin(5), false, false},
		{"PacketIn/unconfigured", master, ghost, pin(ghost), false, false},
		{"PacketInBurst/ingress", master, 3, burst(3), true, false},
		{"PacketInBurst/ingress not the sender", master, 3, burst(5), false, false},
		{"PacketInBurst/unconfigured", master, ghost, burst(ghost), false, false},

		{"GFIBNack/origin", master, 3, nack(3), true, false},
		{"GFIBNack/origin not the sender", master, 2, nack(3), false, false},
		{"GFIBNack/unconfigured", master, ghost, nack(ghost), false, false},
		{"LFIBUpdate/origin", master, 5, answer(5), true, false},
		{"LFIBUpdate/origin not the sender", master, 7, answer(5), false, false},
		{"LFIBUpdate/unconfigured", master, ghost, answer(ghost), false, false},

		{"StateReport/switch", master, 1, report, true, false},
		{"StateReport/unconfigured", master, ghost, report, false, false},
		{"StateReport/peer", master, sb, report, false, false},

		{"FailureReport/observer", master, 4, failure(4, 5), true, false},
		{"FailureReport/observer not the sender", master, 4, failure(6, 5), false, false},
		{"FailureReport/unconfigured suspect", master, 4, failure(4, ghost), false, false},
		{"FailureReport/unconfigured", master, ghost, failure(ghost, 5), false, false},

		{"KeepAlive/switch", master, 4, &openflow.KeepAlive{From: 4, Seq: 1}, true, false},
		{"KeepAlive/peer", master, sb, &openflow.KeepAlive{From: sb, Seq: 1, Generation: 1}, true, false},
		{"KeepAlive/another switch", master, 5, &openflow.KeepAlive{From: 4, Seq: 1}, false, false},
		{"KeepAlive/unconfigured", master, ghost, &openflow.KeepAlive{From: ghost, Seq: 1}, false, false},
		{"KeepAlive/no peer configured", solo, model.NoSwitch, &openflow.KeepAlive{From: model.NoSwitch, Seq: 1}, false, false},

		{"RoleAnnounce/peer", master, sb, &openflow.RoleAnnounce{From: sb, Generation: 1}, true, false},
		{"RoleAnnounce/switch's correction", master, 3, &openflow.RoleAnnounce{From: ctl, Generation: 1}, true, false},
		{"RoleAnnounce/switch naming itself", master, 3, &openflow.RoleAnnounce{From: 3, Generation: 9}, false, false},
		{"RoleAnnounce/unconfigured", master, ghost, &openflow.RoleAnnounce{From: sb, Generation: 9}, false, false},

		{"StateSyncRecord/peer", standby, ctl, tombstone(1), true, false},
		{"StateSyncRecord/switch", master, 5, tombstone(9), false, false},
		{"StateSyncRecord/stale peer", standby, ctl, tombstone(0), false, true},

		{"ConfigAck/switch", master, 4, &openflow.ConfigAck{From: 4, Version: 1}, true, false},
		{"ConfigAck/another switch", master, 5, &openflow.ConfigAck{From: 4, Version: 1}, false, false},
		{"ConfigAck/unconfigured", master, ghost, &openflow.ConfigAck{From: ghost, Version: 1}, false, false},
	}
}

// TestAdmissionTable probes every row of admit: a message from a
// legitimate sender is admitted, and each clause refuses a message
// that breaks it. A refused message changes no state and sends
// nothing; a fenced journal record only counts StaleSyncRejected.
func TestAdmissionTable(t *testing.T) {
	for _, tc := range ctrlCases() {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := admitController(t, tc.role)
			if got := c.admit(tc.from, tc.msg); got != tc.admitted {
				t.Fatalf("admit(%v, %T) = %v, want %v", tc.from, tc.msg, got, tc.admitted)
			}
			if tc.admitted {
				return
			}
			c, env := admitController(t, tc.role)
			before, stale, matrix := ctrlSnapshot(c), c.stats.StaleSyncRejected, c.intensity.Clone()
			c.HandleMessage(tc.from, tc.msg)
			if after := ctrlSnapshot(c); after != before {
				t.Errorf("refused message changed state:\nbefore %s\nafter  %s", before, after)
			}
			if !sameMatrix(c.intensity, matrix) {
				t.Errorf("refused message changed the intensity matrix")
			}
			want := uint64(0)
			if tc.fenced {
				want = 1
			}
			if got := c.stats.StaleSyncRejected - stale; got != want {
				t.Errorf("StaleSyncRejected moved by %d, want %d", got, want)
			}
			if len(env.sent) != 0 {
				t.Errorf("refused message caused sends to %v", env.sent)
			}
		})
	}
}

// TestProcessBurstAdmitsPerItem: ProcessBurst's items arrive with no
// sender, so each is admitted as a PacketIn from its own ingress — an
// item whose ingress is not a configured switch is skipped, the rest
// of the burst is handled.
func TestProcessBurstAdmitsPerItem(t *testing.T) {
	c, _ := admitController(t, master)
	c.ProcessBurst([]openflow.PacketIn{*pin(3), *pin(9999), *pin(5)}, 2)
	if got := c.Stats().PacketIns; got != 2 {
		t.Errorf("PacketIns = %d, want 2 (the unconfigured ingress skipped)", got)
	}
	if got := c.intensity.NumSwitches(); got != 16 {
		t.Errorf("intensity matrix holds %d switches, want 16", got)
	}
}

// pin is a first packet from host 1 toward host 300, which the fixture
// places on S3.
func pin(ingress model.SwitchID) *openflow.PacketIn {
	return &openflow.PacketIn{Switch: ingress, Reason: openflow.ReasonNoMatch, Packet: *pkt(1, 300)}
}

// TestSyncRecordOnlyFromPeer pins read-found bug 19: a journal record
// from configured switch S5, stamped above the master's generation,
// demoted the master to standby and then applied, marking S3 dead.
func TestSyncRecordOnlyFromPeer(t *testing.T) {
	c, _ := admitController(t, master)
	c.HandleMessage(5, &openflow.StateSyncRecord{Kind: openflow.SyncTombstone, Generation: 9, Origin: 3, Full: true})
	if !c.IsMaster() || c.Generation() != 1 {
		t.Errorf("switch's journal record: master=%v generation=%d, want master at 1", c.IsMaster(), c.Generation())
	}
	if c.IsDead(3) {
		t.Error("switch's journal record marked S3 dead")
	}
}

// TestLivenessOnlyFromItsSwitch pins read-found bug 20: S5 forging a
// keep-alive ack for dead S4 revived it and re-pushed its config, and
// S5 forging S4's ConfigAck ended S4's push supervision.
func TestLivenessOnlyFromItsSwitch(t *testing.T) {
	c, env := admitController(t, master)
	if c.sw[4].push == nil {
		t.Fatal("fixture: S4's push is not supervised")
	}
	c.HandleMessage(5, &openflow.ConfigAck{From: 4, Version: c.GroupingVersion()})
	if c.sw[4].push == nil {
		t.Error("S5's forged ConfigAck ended S4's push supervision")
	}
	c.HandleMessage(4, &openflow.ConfigAck{From: 4, Version: c.GroupingVersion()})
	if c.sw[4].push != nil {
		t.Error("S4's own ConfigAck left its push supervised")
	}

	c.sw[4].dead = true
	env.sent = nil
	c.HandleMessage(5, &openflow.KeepAlive{From: 4, Seq: 1})
	if !c.IsDead(4) || c.Stats().Resurrections != 0 {
		t.Error("S5's forged keep-alive revived S4")
	}
	if len(env.sent) != 0 {
		t.Errorf("S5's forged keep-alive caused sends to %v", env.sent)
	}
	c.HandleMessage(4, &openflow.KeepAlive{From: 4, Seq: 1})
	if c.IsDead(4) || c.Stats().Resurrections != 1 {
		t.Error("S4's own keep-alive did not revive it")
	}
}

// TestFailureEvidenceOnlyFromObserver pins read-found bug 21: a
// FailureReport whose Observer is not its sender was taken as
// evidence, and so was one naming a Suspect outside Config.Switches,
// which grew the evidence table by a switch that does not exist.
func TestFailureEvidenceOnlyFromObserver(t *testing.T) {
	c, _ := admitController(t, master)
	c.HandleMessage(5, &openflow.FailureReport{Observer: 6, Suspect: 7, Direction: openflow.LossUp})
	c.HandleMessage(5, &openflow.FailureReport{Observer: 5, Suspect: 9999, Direction: openflow.LossUp})
	if got := c.Stats().FailuresSeen; got != 0 {
		t.Errorf("FailuresSeen = %d, want 0", got)
	}
	if got := c.suspects(); got != 0 {
		t.Errorf("evidence open against %d suspects, want 0", got)
	}
	c.HandleMessage(6, &openflow.FailureReport{Observer: 6, Suspect: 7, Direction: openflow.LossUp})
	if got := c.suspects(); got != 1 {
		t.Errorf("S6's own report: evidence against %d suspects, want 1", got)
	}
}

// hostileCtrlSenders are the senders every received type is tried
// from: two unconfigured IDs (one the zero address), a configured
// switch, the primary's address and the standby's.
var hostileCtrlSenders = []model.SwitchID{9999, model.NoSwitch, 5, model.ControllerNode, model.StandbyNode}

// hostileCtrlMessages is one message per type the controller receives,
// naming the sender where an identity field must and switches outside
// Config.Switches wherever the payload lets it.
func hostileCtrlMessages(from model.SwitchID) []openflow.Message {
	const ghost = model.SwitchID(9999)
	binding := []openflow.LFIBEntry{{MAC: model.HostMAC(777), IP: model.HostIP(777), VLAN: 1}}
	return []openflow.Message{
		&openflow.PacketIn{Switch: from, Reason: openflow.ReasonNoMatch, Packet: *pkt(777, 300)},
		&openflow.PacketInBurst{Switch: from, Items: []openflow.BurstPacket{{Packet: *pkt(777, 300)}, {Packet: *pkt(300, 777)}}},
		&openflow.GFIBNack{Group: 1, Origin: from, Peers: []model.SwitchID{ghost, from, 2}},
		&openflow.LFIBUpdate{Origin: from, Version: 9, Entries: binding},
		&openflow.LFIBUpdate{Origin: ghost, Version: 9, Entries: binding},
		&openflow.StateReport{Group: 1, Version: 9,
			LFIBs: []openflow.LFIBUpdate{{Origin: ghost, Full: true, Version: 9, Entries: binding}},
			Pairs: []openflow.PairStat{{A: from, B: ghost, NewFlows: 9}, {A: ghost, B: 1, NewFlows: 9}}},
		&openflow.FailureReport{Observer: from, Suspect: ghost, Direction: openflow.LossDown},
		&openflow.KeepAlive{From: from, Seq: 1, Generation: 1},
		&openflow.KeepAlive{From: ghost, Seq: 1},
		&openflow.RoleAnnounce{From: model.ControllerNode, Generation: 1},
		&openflow.StateSyncRecord{Kind: openflow.SyncLFIB, Generation: 1, Origin: ghost, Full: true, Version: 9, Entries: binding},
		&openflow.StateSyncRecord{Kind: openflow.SyncTombstone, Generation: 1, Origin: ghost, Full: true},
		&openflow.StateSyncRecord{Kind: openflow.SyncGrouping, Generation: 1, Assign: []openflow.SyncAssign{{Switch: ghost, Group: 1}}},
		&openflow.ConfigAck{From: from, Version: 99},
		&openflow.ConfigAck{From: ghost, Version: 99},
	}
}

// checkCtrlBounds asserts no per-switch table grew past
// Config.Switches — the switch records, the C-LIB and the intensity
// matrix — and that no record holds failure evidence: the hostile
// inputs accuse only switches that do not exist.
func checkCtrlBounds(t *testing.T, c *Controller) {
	t.Helper()
	if len(c.sw) != 16 {
		t.Errorf("%d switch records, want 16", len(c.sw))
	}
	if got := c.suspects(); got != 0 {
		t.Errorf("evidence open against %d suspects", got)
	}
	if sw, ok := c.clib.Locate(model.HostMAC(777)); ok && c.sw[sw] == nil {
		t.Errorf("C-LIB places host 777 on %v", sw)
	}
	if got := len(c.clib.EntriesOn(9999)); got != 0 {
		t.Errorf("C-LIB holds %d hosts on an unconfigured switch", got)
	}
	if got := c.intensity.NumSwitches(); got != 16 {
		t.Errorf("intensity matrix holds %d switches, want 16", got)
	}
}

// TestHostileSenders delivers every type the controller receives from
// every hostile sender, to a master and to a standby: nothing panics
// and no table grows past Config.Switches.
func TestHostileSenders(t *testing.T) {
	for _, role := range []replicaRole{master, standby, solo} {
		for _, from := range hostileCtrlSenders {
			for _, msg := range hostileCtrlMessages(from) {
				c, _ := admitController(t, role)
				c.HandleMessage(from, msg)
				checkCtrlBounds(t, c)
			}
		}
	}
}

// FuzzHandleMessage decodes the input with the openflow codec and
// delivers it from the sender the second argument picks, to a master
// or a standby: nothing may panic and no table may grow past
// Config.Switches.
func FuzzHandleMessage(f *testing.F) {
	for i, from := range hostileCtrlSenders {
		for _, msg := range hostileCtrlMessages(from) {
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
		c, _ := admitController(t, replicaRole(sender/64%3))
		from := hostileCtrlSenders[int(sender)%len(hostileCtrlSenders)]
		if fr, ok := msg.(*openflow.FailureReport); ok && c.sw[fr.Suspect] != nil {
			return // evidence against a configured switch is the failover input
		}
		c.HandleMessage(from, msg)
		checkCtrlBounds(t, c)
	})
}
