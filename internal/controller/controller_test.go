package controller

import (
	"slices"
	"testing"
	"time"

	"lazyctrl/internal/edge"
	"lazyctrl/internal/failover"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/metrics"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
)

// bench wires a controller and switches over a DES network.
type bench struct {
	sim       *sim.Simulator
	net       *netsim.Network
	ctrl      *Controller
	switches  map[model.SwitchID]*edge.Switch
	delivered map[model.SwitchID]int
	rec       *metrics.Recorder
}

func newBench(t *testing.T, mode Mode, dynamic bool, ids ...model.SwitchID) *bench {
	t.Helper()
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	rec := metrics.NewRecorder(24*time.Hour, 2*time.Hour)
	b := &bench{
		sim:       s,
		net:       n,
		switches:  make(map[model.SwitchID]*edge.Switch),
		delivered: make(map[model.SwitchID]int),
		rec:       rec,
	}
	ctrl, err := New(Config{
		Mode:              mode,
		Switches:          ids,
		GroupSizeLimit:    3,
		Seed:              7,
		Dynamic:           dynamic,
		Recorder:          rec,
		KeepAliveInterval: time.Second,
		SyncInterval:      2 * time.Second,
	}, n.Env(model.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	b.ctrl = ctrl
	n.Attach(ctrl)
	n.SetSameGroup(ctrl.SameGroup)
	ctrl.Start()
	for _, id := range ids {
		id := id
		sw := edge.New(edge.Config{
			ID:                id,
			AdvertiseInterval: time.Second,
			ReportInterval:    2 * time.Second,
			OnDeliver: func(p *model.Packet, at time.Duration) {
				b.delivered[id]++
			},
		}, n.Env(id))
		n.Attach(sw)
		sw.Start()
		b.switches[id] = sw
	}
	return b
}

// groupedBench builds a lazy-mode bench with a forced two-group split:
// {1,2} and {3,4}, by seeding the intensity matrix accordingly.
func groupedBench(t *testing.T, dynamic bool) *bench {
	t.Helper()
	b := newBench(t, ModeLazy, dynamic, 1, 2, 3, 4)
	m := grouping.NewIntensity()
	m.Add(1, 2, 100)
	m.Add(3, 4, 100)
	m.Add(1, 3, 1)
	if err := b.ctrl.InitialGrouping(m); err != nil {
		t.Fatal(err)
	}
	// Hosts: 10,20 on switches 1,2 (group A); 30,40 on 3,4 (group B).
	b.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	b.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	b.switches[3].AttachHost(model.HostMAC(30), model.HostIP(30), 1)
	b.switches[4].AttachHost(model.HostMAC(40), model.HostIP(40), 1)
	b.ctrl.RegisterTenant(1, 1)
	// Let group config, advertisement, dissemination, and state reports
	// settle.
	b.sim.RunFor(6 * time.Second)
	return b
}

func pkt(src, dst model.HostID) *model.Packet {
	return &model.Packet{
		SrcMAC:  model.HostMAC(src),
		DstMAC:  model.HostMAC(dst),
		SrcIP:   model.HostIP(src),
		DstIP:   model.HostIP(dst),
		VLAN:    1,
		Ether:   model.EtherTypeIPv4,
		Bytes:   1000,
		FlowSeq: 0,
	}
}

func TestInitialGroupingRespectsAffinity(t *testing.T) {
	b := groupedBench(t, false)
	g := b.ctrl.Grouping()
	if g.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2", g.NumGroups())
	}
	if g.GroupOf(1) != g.GroupOf(2) || g.GroupOf(3) != g.GroupOf(4) {
		t.Error("affine switches split across groups")
	}
	if g.GroupOf(1) == g.GroupOf(3) {
		t.Error("all switches in one group despite size limit")
	}
	if !b.ctrl.SameGroup(1, 2) || b.ctrl.SameGroup(1, 3) {
		t.Error("SameGroup inconsistent with grouping")
	}
	// Switches received their configs.
	if b.switches[1].Group().Group != g.GroupOf(1) {
		t.Error("switch 1 has stale group config")
	}
	if !b.switches[1].IsDesignated() && !b.switches[2].IsDesignated() {
		t.Error("group A has no designated switch")
	}
}

func TestIntraGroupFlowBypassesController(t *testing.T) {
	b := groupedBench(t, false)
	before := b.ctrl.Stats().PacketIns
	b.switches[1].InjectLocal(pkt(10, 20))
	b.sim.RunFor(time.Second)
	if b.delivered[2] != 1 {
		t.Fatalf("intra-group packet not delivered (delivered=%v)", b.delivered)
	}
	if b.ctrl.Stats().PacketIns != before {
		t.Errorf("controller handled %d PacketIns for intra-group flow",
			b.ctrl.Stats().PacketIns-before)
	}
}

func TestInterGroupFlowViaController(t *testing.T) {
	b := groupedBench(t, false)
	b.switches[1].InjectLocal(pkt(10, 30))
	b.sim.RunFor(time.Second)
	if b.delivered[3] != 1 {
		t.Fatalf("inter-group packet not delivered")
	}
	if b.ctrl.Stats().PacketIns == 0 {
		t.Error("controller saw no PacketIn for inter-group flow")
	}
	if b.ctrl.Stats().FlowModsSent == 0 {
		t.Error("controller installed no rule")
	}
	// Second packet of the same pair: the installed rule handles it.
	pins := b.ctrl.Stats().PacketIns
	b.switches[1].InjectLocal(pkt(10, 30))
	b.sim.RunFor(time.Second)
	if b.delivered[3] != 2 {
		t.Fatalf("second packet not delivered")
	}
	if b.ctrl.Stats().PacketIns != pins {
		t.Error("second packet still reached the controller")
	}
}

func TestARPRelayResolvesUnknownDestination(t *testing.T) {
	b := groupedBench(t, false)
	// Attach a brand-new host to switch 4 without waiting for state
	// reports to reach the C-LIB.
	b.switches[4].AttachHost(model.HostMAC(99), model.HostIP(99), 1)
	b.switches[1].InjectLocal(pkt(10, 99))
	b.sim.RunFor(2 * time.Second)
	if b.delivered[4] == 0 {
		t.Fatal("flow to freshly attached host never delivered")
	}
	if b.ctrl.Stats().ARPRelays == 0 {
		t.Error("no ARP relay was used")
	}
	if _, ok := b.ctrl.CLIB().Locate(model.HostMAC(99)); !ok {
		t.Error("C-LIB not updated from ARP answer")
	}
}

func TestCLIBPopulatedFromStateReports(t *testing.T) {
	b := groupedBench(t, false)
	for _, h := range []model.HostID{10, 20, 30, 40} {
		if _, ok := b.ctrl.CLIB().Locate(model.HostMAC(h)); !ok {
			t.Errorf("C-LIB missing host %v", h)
		}
	}
	if sw, ok := b.ctrl.CLIB().Locate(model.HostMAC(30)); ok && sw != 3 {
		t.Errorf("host 30 located at %v, want S3", sw)
	}
}

func TestLearningModeFloodsThenLearns(t *testing.T) {
	b := newBench(t, ModeLearning, false, 1, 2, 3)
	b.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	b.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	b.sim.RunFor(time.Second)

	// First flow 10→20: dst unknown → flood; switch 2 delivers.
	b.switches[1].InjectLocal(pkt(10, 20))
	b.sim.RunFor(time.Second)
	if b.delivered[2] != 1 {
		t.Fatalf("flooded packet not delivered (delivered=%v)", b.delivered)
	}
	if b.ctrl.Stats().Floods != 1 {
		t.Errorf("Floods = %d, want 1", b.ctrl.Stats().Floods)
	}
	// Reverse flow 20→10: both endpoints now learned → rule install.
	b.switches[2].InjectLocal(pkt(20, 10))
	b.sim.RunFor(time.Second)
	if b.delivered[1] != 1 {
		t.Fatalf("reverse packet not delivered")
	}
	if b.ctrl.Stats().FlowModsSent == 0 {
		t.Error("learning mode installed no rule once both ends known")
	}
	if b.ctrl.Stats().Floods != 1 {
		t.Errorf("Floods = %d after learn, want still 1", b.ctrl.Stats().Floods)
	}
}

func TestWorkloadLazyBelowLearning(t *testing.T) {
	inject := func(b *bench) {
		// 20 intra-group flows, 2 inter-group flows.
		for i := 0; i < 10; i++ {
			b.switches[1].InjectLocal(pkt(10, 20))
			b.switches[3].InjectLocal(pkt(30, 40))
			b.sim.RunFor(100 * time.Millisecond)
		}
		b.switches[1].InjectLocal(pkt(10, 30))
		b.switches[2].InjectLocal(pkt(20, 40))
		b.sim.RunFor(time.Second)
	}
	lazy := groupedBench(t, false)
	inject(lazy)

	learning := newBench(t, ModeLearning, false, 1, 2, 3, 4)
	learning.switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	learning.switches[2].AttachHost(model.HostMAC(20), model.HostIP(20), 1)
	learning.switches[3].AttachHost(model.HostMAC(30), model.HostIP(30), 1)
	learning.switches[4].AttachHost(model.HostMAC(40), model.HostIP(40), 1)
	learning.sim.RunFor(6 * time.Second)
	inject(learning)

	lazyPIs := lazy.ctrl.Stats().PacketIns
	learnPIs := learning.ctrl.Stats().PacketIns
	if lazyPIs >= learnPIs {
		t.Errorf("lazy PacketIns = %d, learning = %d; want lazy < learning", lazyPIs, learnPIs)
	}
}

func TestSwitchFailureDetectedAndDesignatedReplaced(t *testing.T) {
	b := groupedBench(t, false)
	var diagnosed []model.SwitchID
	var diagnoses []failover.Diagnosis
	b.ctrl.cfg.OnDiagnosis = func(s model.SwitchID, d failover.Diagnosis) {
		diagnosed = append(diagnosed, s)
		diagnoses = append(diagnoses, d)
	}
	// Group A = {1,2}; designated is the lowest-MAC live member (1).
	if !b.switches[1].IsDesignated() {
		t.Fatalf("precondition: switch 1 should be designated")
	}
	b.net.FailNode(1)
	b.sim.RunFor(20 * time.Second)

	found := false
	for i, s := range diagnosed {
		if s == 1 && diagnoses[i] == failover.DiagSwitch {
			found = true
		}
	}
	if !found {
		t.Fatalf("switch failure not diagnosed: %v %v", diagnosed, diagnoses)
	}
	// Switch 2 must have taken over as designated for group A.
	if !b.switches[2].IsDesignated() {
		t.Error("designated role not transferred to switch 2")
	}
}

func TestMarkRecovered(t *testing.T) {
	b := groupedBench(t, false)
	b.net.FailNode(1)
	b.sim.RunFor(20 * time.Second)
	if !b.ctrl.IsDead(1) {
		t.Fatal("switch 1 not marked dead")
	}
	b.net.HealNode(1)
	b.ctrl.MarkRecovered(1)
	b.sim.RunFor(5 * time.Second)
	if b.ctrl.IsDead(1) {
		t.Error("switch 1 still dead after recovery")
	}
	// Designated role returns to the lowest-MAC live member.
	if !b.switches[1].IsDesignated() {
		t.Error("recovered switch did not resume designated role")
	}
}

func TestConfigValidation(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	if _, err := New(Config{Mode: 99, Switches: []model.SwitchID{1}}, n.Env(model.ControllerNode)); err == nil {
		t.Error("invalid mode accepted")
	}
	if _, err := New(Config{Mode: ModeLazy}, n.Env(model.ControllerNode)); err == nil {
		t.Error("empty switch list accepted")
	}
}

func TestQueueDelayGrowsWithLoad(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	c, err := New(Config{Mode: ModeLazy, Switches: []model.SwitchID{1}, LoadScale: 1}, n.Env(model.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	idle := c.queueDelay()
	c.lastRate = 0.9 * serviceRate
	busy := c.queueDelay()
	if busy <= idle {
		t.Errorf("queueDelay: idle=%v busy=%v, want busy > idle", idle, busy)
	}
	c.lastRate = 100 * serviceRate
	if got := c.queueDelay(); got > 200*time.Millisecond {
		t.Errorf("queueDelay unbounded: %v", got)
	}
}

func TestModeString(t *testing.T) {
	if ModeLazy.String() != "lazy" || ModeLearning.String() != "learning" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode has empty name")
	}
}

// arpOrderEnv records the destinations of ARPRelay sends in send order.
type arpOrderEnv struct {
	*recordingEnv
	relays []model.SwitchID
}

func (e *arpOrderEnv) Send(to model.SwitchID, msg netsim.Message) {
	if _, ok := msg.(*openflow.ARPRelay); ok {
		e.relays = append(e.relays, to)
	}
}

// TestARPRelayTargetsAscending pins the relay fan-out order for a
// tenant spread over several groups. Each send draws jitter from the
// simulator's RNG, so an order taken from map iteration would make
// delivery times depend on Go's map randomization.
func TestARPRelayTargetsAscending(t *testing.T) {
	env := &arpOrderEnv{recordingEnv: newRecordingEnv()}
	c, err := New(Config{Mode: ModeLazy, Switches: switchList(9), Seed: 7}, env)
	if err != nil {
		t.Fatal(err)
	}
	c.grp = grouping.NewGrouping()
	for g := 0; g < 3; g++ {
		base := model.SwitchID(3*g + 1)
		c.grp.AddGroup([]model.SwitchID{base, base + 1, base + 2})
	}
	// VLAN 1 has a host behind one switch of each group.
	for _, sw := range []model.SwitchID{2, 5, 8} {
		h := model.HostID(sw)
		c.CLIB().Update(model.HostMAC(h), model.HostIP(h), 1, sw, 1)
	}
	const relays = 20
	for i := 0; i < relays; i++ {
		c.relayARP(*pkt(2, 99))
	}
	if len(env.relays) != 3*relays {
		t.Fatalf("%d ARPRelay sends, want %d", len(env.relays), 3*relays)
	}
	for i := 0; i < len(env.relays); i += 3 {
		if got := env.relays[i : i+3]; !slices.IsSorted(got) {
			t.Fatalf("relay %d sent to %v, want ascending", i/3, got)
		}
	}
}

// TestKeepAliveRoundShape pins the controller's probe round (the
// Controller→Sn stream of Table I plus the master→standby heartbeat):
// a switch marked dead is probed only every deadProbeEvery-th round,
// every other switch and the peer get the round's From, Seq and
// Generation, a new round never rewrites the last one's message (it
// may still be in flight), and the round builds one message whatever
// the switch count.
func TestKeepAliveRoundShape(t *testing.T) {
	env := newRecordingEnv()
	c, err := New(Config{Mode: ModeLazy, Switches: switchList(16), Peer: model.StandbyNode}, env)
	if err != nil {
		t.Fatal(err)
	}
	const dead = model.SwitchID(5)
	c.sw[dead].dead = true
	var last *openflow.KeepAlive
	for round := 1; round <= 2*deadProbeEvery; round++ {
		env.reset()
		c.sendKeepAlives()
		want := openflow.KeepAlive{From: c.addr, Seq: c.kaSeq, Generation: c.generation}
		probeDead := c.kaSeq%deadProbeEvery == 0
		receivers := append(switchList(16), model.StandbyNode)
		if !probeDead {
			receivers = slices.DeleteFunc(receivers, func(sw model.SwitchID) bool { return sw == dead })
		}
		if len(env.sends) != len(receivers) {
			t.Errorf("round %d: %d receivers, want %d (dead switch probed: %v)", round, len(env.sends), len(receivers), probeDead)
		}
		for _, sw := range receivers {
			msgs := env.sends[sw]
			if len(msgs) != 1 {
				t.Errorf("round %d: switch %v got %d messages, want 1", round, sw, len(msgs))
				continue
			}
			ka, ok := msgs[0].(*openflow.KeepAlive)
			if !ok || *ka != want {
				t.Errorf("round %d: switch %v got %#v, want %+v", round, sw, msgs[0], want)
				continue
			}
			if ka == last {
				t.Errorf("round %d: switch %v got the previous round's KeepAlive", round, sw)
			}
		}
		if last != nil && last.Seq != want.Seq-1 {
			t.Errorf("round %d: the previous round's KeepAlive now reads Seq %d, want %d", round, last.Seq, want.Seq-1)
		}
		last = env.sends[1][0].(*openflow.KeepAlive)
	}

	allocs := func(switches int) float64 {
		c, err := New(Config{Mode: ModeLazy, Switches: switchList(switches), Peer: model.StandbyNode}, discardEnv{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, c.sendKeepAlives)
	}
	if small, large := allocs(16), allocs(256); small != large {
		t.Errorf("a keep-alive round allocates %.0f times at 16 switches and %.0f at 256, want the same", small, large)
	}
}

// discardEnv is an Env that drops every send and never fires a timer.
type discardEnv struct{}

func (discardEnv) Now() time.Duration                  { return 0 }
func (discardEnv) After(time.Duration, func()) func()  { return func() {} }
func (discardEnv) Every(time.Duration, func()) func()  { return func() {} }
func (discardEnv) Send(model.SwitchID, netsim.Message) {}
