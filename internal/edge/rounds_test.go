package edge

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
)

// discardEnv is a netsim.Env that drops every send and never fires a
// timer.
type discardEnv struct{}

func (discardEnv) Now() time.Duration                  { return time.Second }
func (discardEnv) After(time.Duration, func()) func()  { return func() {} }
func (discardEnv) Every(time.Duration, func()) func()  { return func() {} }
func (discardEnv) Send(model.SwitchID, netsim.Message) {}

// roundsConfig is a switch's view of group 1 = {1, 2, 3} with S1
// designated, at the given version.
func roundsConfig(self model.SwitchID, version uint64) *openflow.GroupConfig {
	members := []model.SwitchID{1, 2, 3}
	i := int(self) - 1
	return &openflow.GroupConfig{
		Group:             1,
		Members:           members,
		Designated:        1,
		RingPrev:          members[(i+2)%3],
		RingNext:          members[(i+1)%3],
		SyncInterval:      5 * time.Second,
		KeepAliveInterval: time.Second,
		Version:           version,
	}
}

// TestControlRoundsDoNotAllocate pins the steady-state cost of the
// edge's periodic control rounds: a member's idle advertise rounds
// (beacon round included) and a designated switch's empty
// dissemination and report rounds send cached messages and build
// nothing, and a heartbeat round plus its answer to a controller probe
// take two slots of the switch's heartbeat block, whose allocations
// hold 32 slots once grown, so they allocate at most one block per 16
// rounds.
func TestControlRoundsDoNotAllocate(t *testing.T) {
	const rounds = 16 * refreshEveryRounds
	perRound := func(round func()) float64 {
		return testing.AllocsPerRun(1, func() {
			for range rounds {
				round()
			}
		}) / rounds
	}
	const bound = 1.0 / 16

	member := New(Config{ID: 2}, discardEnv{})
	member.AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	member.HandleMessage(model.ControllerNode, roundsConfig(2, 1))
	if got := perRound(member.advertise); got > bound {
		t.Errorf("an idle advertise round allocates %.3f times, want ≤ %.3f", got, bound)
	}
	if member.Stats().IdleRefreshes == 0 {
		t.Error("no idle beacon was sent: the rounds measured were not the steady state")
	}

	probe := &openflow.KeepAlive{From: model.ControllerNode}
	heartbeatRound := func() {
		member.sendKeepAlives()
		probe.Seq++
		member.HandleMessage(model.ControllerNode, probe)
	}
	if got := perRound(heartbeatRound); got > bound {
		t.Errorf("a heartbeat round and its probe ack allocate %.3f times, want ≤ %.3f", got, bound)
	}

	designated := New(Config{ID: 1}, discardEnv{})
	designated.AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	designated.HandleMessage(model.ControllerNode, roundsConfig(1, 1))
	designated.disseminateGFIB()
	designated.reportToController()
	// Every refreshEveryRounds-th round is a dissemination beacon and a
	// full report, both of which carry content: skip them.
	emptyRounds := func() {
		if (designated.gfibRound+1)%refreshEveryRounds == 0 {
			designated.gfibRound++
		}
		if (designated.ctrlRound+1)%refreshEveryRounds == 0 {
			designated.ctrlRound++
		}
		designated.disseminateGFIB()
		designated.reportToController()
	}
	if got := perRound(emptyRounds); got > bound {
		t.Errorf("an empty dissemination and report round allocates %.3f times, want ≤ %.3f", got, bound)
	}
}

// sendLog is a switch's env that records every control message the
// switch hands to Send, with its encoding at that instant, and every
// overlay packet, with a copy of it and of its outer header.
type sendLog struct {
	netsim.Env
	t       *testing.T
	sent    []sentMsg
	packets []sentPacket
}

type sentMsg struct {
	at   time.Duration
	to   model.SwitchID
	msg  openflow.Message
	wire []byte
}

type sentPacket struct {
	p   *model.Packet
	was model.Packet
	hdr model.EncapHeader
}

func (l *sendLog) Send(to model.SwitchID, m netsim.Message) {
	switch m := m.(type) {
	case openflow.Message:
		wire, err := openflow.Encode(m, 0)
		if err != nil {
			l.t.Fatalf("encode %T: %v", m, err)
		}
		l.sent = append(l.sent, sentMsg{l.Env.Now(), to, m, wire})
	case *model.Packet:
		l.packets = append(l.packets, sentPacket{m, *m, *m.Encap})
	}
	l.Env.Send(to, m)
}

// TestSentMessagesNeverRewritten pins the rule the cached and block
// messages rest on: a message handed to Send is never written again.
// A member and a designated switch run for more than three beacon
// cadences through an L-FIB learn, a group version bump and a member
// crash and reboot, under controller probes, and then carry first
// packets: overlay packets, PacketIns sent at once (the member) and
// from the batching window (the designated switch). Afterwards every
// message either passed to Send must encode to the bytes it had when
// sent, every overlay packet must equal its copy, outer header
// included, and an idle beacon or empty report is one object exactly
// while its content stays the same.
func TestSentMessagesNeverRewritten(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	n.Attach(&ctrlRecorder{})
	ids := []model.SwitchID{1, 2, 3}
	switches := make(map[model.SwitchID]*Switch)
	logs := make(map[model.SwitchID]*sendLog)
	for _, id := range ids {
		logs[id] = &sendLog{Env: n.Env(id), t: t}
		cfg := Config{ID: id}
		if id == 1 {
			cfg.PacketInBatchMax = 8
		}
		sw := New(cfg, logs[id])
		n.Attach(sw)
		sw.Start()
		sw.AttachHost(model.HostMAC(model.HostID(10*id)), model.HostIP(model.HostID(10*id)), 1)
		switches[id] = sw
	}
	configure := func(version uint64, ids ...model.SwitchID) {
		for _, id := range ids {
			switches[id].HandleMessage(model.ControllerNode, roundsConfig(id, version))
		}
	}
	ctrl := n.Env(model.ControllerNode)
	var probeSeq uint64
	stopProbes := ctrl.Every(time.Second, func() {
		probeSeq++
		for _, id := range ids {
			ctrl.Send(id, &openflow.KeepAlive{From: model.ControllerNode, Seq: probeSeq})
		}
	})
	defer stopProbes()

	const member = 2
	configure(1, 1, 2, 3)
	s.RunFor(62 * time.Second)
	switches[member].AttachHost(model.HostMAC(21), model.HostIP(21), 1)
	s.RunFor(60 * time.Second)
	configure(2, 1, 2, 3)
	s.RunFor(58 * time.Second)
	n.FailNode(member)
	s.RunFor(10 * time.Second)
	n.HealNode(member)
	switches[member].Reboot()
	switches[member].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	configure(2, member)
	s.RunFor(120 * time.Second)
	// First packets: each switch sends one toward each peer's host and
	// one toward a host nobody holds.
	stopTraffic := ctrl.Every(50*time.Millisecond, func() {
		switches[1].InjectLocal(pkt(10, 20, 0))
		switches[1].InjectLocal(pkt(10, 30, 0))
		switches[1].InjectLocal(pkt(10, 99, 0))
		switches[member].InjectLocal(pkt(20, 10, 0))
		switches[member].InjectLocal(pkt(20, 30, 0))
		switches[member].InjectLocal(pkt(20, 99, 0))
	})
	s.RunFor(10 * time.Second)
	stopTraffic()
	s.RunFor(time.Second)

	if rounds := s.Now().Duration() / (5 * time.Second); rounds < 3*refreshEveryRounds {
		t.Fatalf("ran %d advertise rounds, want ≥ %d", rounds, 3*refreshEveryRounds)
	}
	for _, id := range []model.SwitchID{1, member} {
		pins := 0
		for i, m := range logs[id].sent {
			wire, err := openflow.Encode(m.msg, 0)
			if err != nil {
				t.Fatalf("S%d: re-encode %T: %v", id, m.msg, err)
			}
			if !bytes.Equal(wire, m.wire) {
				t.Errorf("S%d: send %d (%T to %v at %v) was rewritten after it was sent", id, i, m.msg, m.to, m.at)
			}
			if _, ok := m.msg.(*openflow.PacketIn); ok {
				pins++
			}
		}
		for i, sp := range logs[id].packets {
			if *sp.p != sp.was || *sp.p.Encap != sp.hdr {
				t.Errorf("S%d: overlay packet %d was rewritten after it was sent: %+v %+v, sent as %+v %+v",
					id, i, *sp.p, *sp.p.Encap, sp.was, sp.hdr)
			}
		}
		if len(logs[id].packets) < 300 || pins < 150 {
			t.Errorf("S%d sent %d overlay packets and %d PacketIns, want ≥ 300 and ≥ 150", id, len(logs[id].packets), pins)
		}
	}

	// idle collects the member's idle beacons or the designated switch's
	// empty reports, in send order.
	idle := func(id, to model.SwitchID, want func(*openflow.StateReport) bool) []*openflow.StateReport {
		var out []*openflow.StateReport
		for _, m := range logs[id].sent {
			if r, ok := m.msg.(*openflow.StateReport); ok && m.to == to && want(r) {
				out = append(out, r)
			}
		}
		return out
	}
	beacons := idle(member, 1, func(r *openflow.StateReport) bool {
		return len(r.Pairs) == 0 && len(r.LFIBs) == 1 && !r.LFIBs[0].Full && len(r.LFIBs[0].Entries) == 0
	})
	empties := idle(1, model.ControllerNode, func(r *openflow.StateReport) bool {
		return len(r.Pairs) == 0 && len(r.LFIBs) == 0
	})
	for _, c := range []struct {
		name    string
		sent    []*openflow.StateReport
		changes int // content changes the run must cover
	}{
		{"idle beacon", beacons, 3},  // L-FIB learn, version bump, reboot
		{"empty report", empties, 1}, // version bump
	} {
		changes := 0
		for i := 1; i < len(c.sent); i++ {
			prev, cur := c.sent[i-1], c.sent[i]
			same := bytes.Equal(mustEncode(t, prev), mustEncode(t, cur))
			switch {
			case !same && prev == cur:
				t.Errorf("%s %d: the content changed but the object is the one sent before", c.name, i)
			case same && prev != cur:
				t.Errorf("%s %d: the content is unchanged but the object was rebuilt", c.name, i)
			}
			if !same {
				changes++
			}
		}
		if changes < c.changes {
			t.Errorf("%d %ss sent across %d content changes, want ≥ %d changes", len(c.sent), c.name, changes, c.changes)
		}
	}
}

func mustEncode(t *testing.T, m openflow.Message) []byte {
	t.Helper()
	wire, err := openflow.Encode(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// duty names the periodic duty a control message a switch sent
// belongs to.
func duty(m sentMsg) string {
	switch msg := m.msg.(type) {
	case *openflow.KeepAlive:
		return "keep-alive"
	case *openflow.GFIBUpdate, *openflow.GFIBDelta:
		return "dissemination"
	case *openflow.StateReport:
		if m.to == model.ControllerNode {
			return "report"
		}
		return "advertisement"
	default:
		return fmt.Sprintf("%T", msg)
	}
}

// TestStopCancelsEveryDuty pins that a switch without Fold stops every
// periodic duty it registered. The switch runs alone on the DES beside
// a silent controller, so nothing reaches it and each of its sends
// comes from its own timers. A GroupConfig that drops the designated
// role, or replaces it with a fresh one, must stop the old role's
// dissemination and report too: once the role is gone from the switch,
// those tasks are reachable only through its task list. After Stop,
// running on sends nothing and leaves no event queued.
func TestStopCancelsEveryDuty(t *testing.T) {
	dropped := roundsConfig(1, 2)
	dropped.Designated = 2
	replaced := roundsConfig(1, 2)
	replaced.Members = []model.SwitchID{1, 2, 3, 4}
	for _, tc := range []struct {
		name   string
		id     model.SwitchID
		later  *openflow.GroupConfig // applied halfway, if set
		before []string              // duties sent from timers before Stop
		after  []string              // duties sent after later
	}{
		{name: "member", id: 2, before: []string{"advertisement", "keep-alive"}},
		{name: "designated", id: 1, before: []string{"keep-alive", "dissemination", "report"}},
		{name: "role dropped", id: 1, later: dropped,
			before: []string{"keep-alive", "dissemination", "report"},
			after:  []string{"advertisement", "keep-alive"}},
		{name: "role replaced", id: 1, later: replaced,
			before: []string{"keep-alive", "dissemination", "report"},
			after:  []string{"keep-alive", "dissemination", "report"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			n := netsim.New(s, netsim.DefaultLatencies())
			n.Attach(&ctrlRecorder{})
			log := &sendLog{Env: n.Env(tc.id), t: t}
			sw := New(Config{ID: tc.id}, log)
			n.Attach(sw)
			sw.Start()
			sw.AttachHost(model.HostMAC(model.HostID(10*tc.id)), model.HostIP(model.HostID(10*tc.id)), 1)
			sw.HandleMessage(model.ControllerNode, roundsConfig(tc.id, 1))
			// sentFrom counts the duties of the sends made from a timer
			// (a second past the config's own sends) since index i.
			sentFrom := func(i int, since time.Duration) map[string]int {
				got := make(map[string]int)
				for _, m := range log.sent[i:] {
					if m.at > since+time.Second {
						got[duty(m)]++
					}
				}
				return got
			}
			s.RunFor(250 * time.Second)
			for _, d := range tc.before {
				if sentFrom(0, 0)[d] == 0 {
					t.Errorf("no %s sent before Stop: sent %v", d, sentFrom(0, 0))
				}
			}
			if tc.later != nil {
				mark, at := len(log.sent), s.Now().Duration()
				sw.HandleMessage(model.ControllerNode, tc.later)
				s.RunFor(250 * time.Second)
				got := sentFrom(mark, at)
				for _, d := range tc.after {
					if got[d] == 0 {
						t.Errorf("no %s sent after the second config: sent %v", d, got)
					}
				}
				if tc.later.Designated != tc.id && (got["dissemination"] > 0 || got["report"] > 0) {
					t.Errorf("the dropped role still sends: %v", got)
				}
			}
			mark := len(log.sent)
			sw.Stop()
			s.RunFor(250 * time.Second)
			for _, m := range log.sent[mark:] {
				t.Errorf("sent %T (%s) to %v at %v after Stop", m.msg, duty(m), m.to, m.at)
			}
			if p := s.Pending(); p != 0 {
				t.Errorf("%d events still queued after Stop", p)
			}
		})
	}
}
