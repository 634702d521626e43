package controller

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"lazyctrl/internal/edge"
	"lazyctrl/internal/failover"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
)

// recordingEnv is a minimal netsim.Env for direct controller tests:
// timers fire immediately, sends are recorded per destination, and
// time stands still. Every send comes from the controller's own
// goroutine (the apply phase and immediate timer callbacks).
type recordingEnv struct {
	sends map[model.SwitchID][]netsim.Message
}

func newRecordingEnv() *recordingEnv {
	return &recordingEnv{sends: make(map[model.SwitchID][]netsim.Message)}
}

func (e *recordingEnv) Now() time.Duration { return 0 }

func (e *recordingEnv) After(d time.Duration, fn func()) func() {
	fn()
	return func() {}
}

func (e *recordingEnv) Every(d time.Duration, fn func()) func() { return func() {} }

func (e *recordingEnv) Send(to model.SwitchID, msg netsim.Message) {
	e.sends[to] = append(e.sends[to], msg)
}

func (e *recordingEnv) sendCounts() map[model.SwitchID]int {
	out := make(map[model.SwitchID]int, len(e.sends))
	for to, msgs := range e.sends {
		out[to] = len(msgs)
	}
	return out
}

func (e *recordingEnv) reset() {
	e.sends = make(map[model.SwitchID][]netsim.Message)
}

func switchList(n int) []model.SwitchID {
	ids := make([]model.SwitchID, n)
	for i := range ids {
		ids[i] = model.SwitchID(i + 1)
	}
	return ids
}

func newDirectController(t *testing.T, mode Mode) (*Controller, *recordingEnv) {
	t.Helper()
	env := newRecordingEnv()
	c, err := New(Config{
		Mode:     mode,
		Switches: switchList(16),
		Seed:     7,
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	return c, env
}

// stormBatch builds a deterministic storm: packets between warm hosts
// (every host h lives on switch h%16+1) with a slice of never-learned
// destinations mixed in.
func stormBatch(events int, seed uint64) []openflow.PacketIn {
	rng := rand.New(rand.NewPCG(seed, seed^0xdead))
	batch := make([]openflow.PacketIn, events)
	for i := range batch {
		src := model.HostID(1 + rng.IntN(256))
		dst := model.HostID(1 + rng.IntN(256))
		if rng.Float64() < 0.10 {
			dst = model.HostID(10_000 + rng.IntN(100)) // never learned
		}
		batch[i] = openflow.PacketIn{
			Switch: model.SwitchID(uint32(src)%16 + 1),
			Reason: openflow.ReasonNoMatch,
			Packet: model.Packet{
				SrcMAC: model.HostMAC(src),
				DstMAC: model.HostMAC(dst),
				SrcIP:  model.HostIP(src),
				DstIP:  model.HostIP(dst),
				VLAN:   1,
				Ether:  model.EtherTypeIPv4,
				Bytes:  1000,
			},
		}
	}
	return batch
}

// warmLearning teaches the controller the locations of hosts 1..hosts
// through the sequential path; the storm's other hosts stay unknown
// until a burst introduces them.
func warmLearning(c *Controller, hosts model.HostID) {
	for h := model.HostID(1); h <= hosts; h++ {
		c.HandleMessage(model.SwitchID(uint32(h)%16+1), &openflow.PacketIn{
			Switch: model.SwitchID(uint32(h)%16 + 1),
			Packet: model.Packet{
				SrcMAC: model.HostMAC(h),
				DstMAC: model.HostMAC(10_000 + h), // unknown: flood, learn src
				VLAN:   1,
			},
		})
	}
}

// burstWorkers are the ProcessBurst worker counts the differentials
// compare; the first is the reference.
var burstWorkers = []int{1, 2, 8}

// TestBurstShardDifferential drives the same storm through ProcessBurst
// at 1, 2 and 8 workers and asserts the final C-LIB, learned and pending
// state, the stats and the sends are identical (learning mode). A
// quarter of the storm's hosts are not warmed, so their first packets
// in the burst introduce them: every decision is made against the
// tables as they stood when the burst arrived, so a packet toward such
// a host floods at every worker count.
func TestBurstShardDifferential(t *testing.T) {
	const warmed = 192
	batch := stormBatch(4096, 11)
	run := func(workers int) (*Controller, *recordingEnv) {
		c, env := newDirectController(t, ModeLearning)
		warmLearning(c, warmed)
		env.reset()
		c.ProcessBurst(batch, workers)
		return c, env
	}
	ref, refEnv := run(burstWorkers[0])
	for _, w := range burstWorkers[1:] {
		c, env := run(w)
		if !reflect.DeepEqual(ref.LearnedLocations(), c.LearnedLocations()) {
			t.Errorf("learned tables differ at %d workers", w)
		}
		if !reflect.DeepEqual(ref.state.pending, c.state.pending) {
			t.Errorf("pending tables differ at %d workers", w)
		}
		if len(clibEntries(c)) != 0 {
			t.Errorf("learning mode touched the C-LIB at %d workers", w)
		}
		if ref.Stats() != c.Stats() {
			t.Errorf("stats differ:\n 1 worker:  %+v\n %d workers: %+v", ref.Stats(), w, c.Stats())
		}
		if !reflect.DeepEqual(refEnv.sendCounts(), env.sendCounts()) {
			t.Errorf("send counts differ at %d workers: %v vs %v", w, refEnv.sendCounts(), env.sendCounts())
		}
	}
	st := ref.Stats()
	if st.PacketIns != 4096+warmed { // storm + warmup
		t.Errorf("PacketIns = %d, want %d", st.PacketIns, 4096+warmed)
	}
	// Floods: the warmup's, plus every storm packet whose destination
	// was unknown when the burst arrived, including hosts the burst
	// itself introduced. A host addressing itself bounces instead.
	host := make(map[model.MAC]model.HostID, 256)
	for h := model.HostID(1); h <= 256; h++ {
		host[model.HostMAC(h)] = h
	}
	wantFloods, introduced := uint64(warmed), 0
	for i := range batch {
		p := &batch[i].Packet
		if p.DstMAC == p.SrcMAC {
			continue
		}
		if h, ok := host[p.DstMAC]; !ok || h > warmed {
			wantFloods++
			if ok {
				introduced++
			}
		}
	}
	if introduced == 0 {
		t.Fatal("storm introduced no destination mid-burst")
	}
	if st.Floods != wantFloods {
		t.Errorf("Floods = %d, want %d: destinations introduced mid-burst must flood", st.Floods, wantFloods)
	}
	if st.FlowModsSent == 0 {
		t.Errorf("storm exercised no installs: %+v", st)
	}
}

// TestBurstShardDifferentialLazy repeats the differential in lazy mode:
// C-LIB hits install rules, misses queue pending flows; both tables
// must match the 1-worker result at 2 and 8 workers, including per-MAC
// queue order. A quarter of the hosts are missing from the C-LIB.
func TestBurstShardDifferentialLazy(t *testing.T) {
	batch := stormBatch(4096, 13)
	run := func(workers int) (*Controller, *recordingEnv) {
		c, env := newDirectController(t, ModeLazy)
		for h := model.HostID(1); h <= 192; h++ {
			c.CLIB().Update(model.HostMAC(h), model.HostIP(h), 1, model.SwitchID(uint32(h)%16+1), 1)
		}
		c.ProcessBurst(batch, workers)
		return c, env
	}
	ref, refEnv := run(burstWorkers[0])
	for _, w := range burstWorkers[1:] {
		c, env := run(w)
		if !reflect.DeepEqual(ref.state.pending, c.state.pending) {
			t.Errorf("pending tables differ at %d workers: %d vs %d MACs", w, len(ref.state.pending), len(c.state.pending))
		}
		if !reflect.DeepEqual(clibEntries(ref), clibEntries(c)) {
			t.Errorf("C-LIBs differ at %d workers", w)
		}
		if ref.Stats() != c.Stats() {
			t.Errorf("stats differ:\n 1 worker:  %+v\n %d workers: %+v", ref.Stats(), w, c.Stats())
		}
		if !reflect.DeepEqual(refEnv.sendCounts(), env.sendCounts()) {
			t.Errorf("send counts differ at %d workers", w)
		}
	}
	if ref.PendingFlows() == 0 {
		t.Error("storm queued no pending flows")
	}
}

// TestBatchedGroupPush asserts the regroup push invariant: at most one
// OpenFlow message per destination switch per round, with the
// GroupConfig leading its preloads.
func TestBatchedGroupPush(t *testing.T) {
	c, env := newDirectController(t, ModeLazy)
	m := grouping.NewIntensity()
	m.Add(1, 2, 100)
	m.Add(3, 4, 100)
	m.Add(1, 3, 1)
	if err := c.InitialGrouping(m); err != nil {
		t.Fatal(err)
	}
	// Initial push: empty C-LIB, so plain GroupConfigs — still one
	// message per destination.
	for sw, n := range env.sendCounts() {
		if n != 1 {
			t.Errorf("initial push sent %d messages to %v, want 1", n, sw)
		}
	}
	// Populate the C-LIB and re-push as if SGI had reshaped every group
	// (forgetting what every switch holds; an unchanged destination is
	// skipped by design).
	for h := model.HostID(1); h <= 64; h++ {
		sw := model.SwitchID(uint32(h)%16 + 1)
		c.CLIB().Update(model.HostMAC(h), model.HostIP(h), 1, sw, c.Grouping().GroupOf(sw))
	}
	env.reset()
	c.forgetPushed(c.cfg.Switches...)
	c.pushGroupConfigs(false)
	counts := env.sendCounts()
	if len(counts) == 0 {
		t.Fatal("re-push sent nothing")
	}
	for sw, n := range counts {
		if n != 1 {
			t.Errorf("regroup round sent %d messages to %v, want ≤1", n, sw)
		}
	}
	if c.Stats().BatchedPushes == 0 || c.Stats().RulesPreload == 0 {
		t.Errorf("no batched preloads: %+v", c.Stats())
	}
	// Every batch leads with the GroupConfig, followed by the group's
	// preloaded G-FIB filters (encoded once, shared across receivers).
	sawBatch := false
	for to, msgs := range env.sends {
		b, ok := msgs[0].(*openflow.Batch)
		if !ok {
			continue // groups with no peer state push a bare GroupConfig
		}
		sawBatch = true
		cfg, ok := b.Msgs[0].(*openflow.GroupConfig)
		if !ok {
			t.Errorf("batch to %v does not lead with GroupConfig", to)
			continue
		}
		if len(b.Msgs) != 2 {
			t.Errorf("batch to %v carries %d messages, want GroupConfig + preload", to, len(b.Msgs))
			continue
		}
		u, ok := b.Msgs[1].(*openflow.GFIBUpdate)
		if !ok {
			t.Errorf("batch to %v carries %T, want *openflow.GFIBUpdate", to, b.Msgs[1])
			continue
		}
		if u.Group != cfg.Group || len(u.Filters) == 0 {
			t.Errorf("preload to %v = group %v with %d filters", to, u.Group, len(u.Filters))
		}
	}
	if !sawBatch {
		t.Error("no batched push observed despite populated C-LIB")
	}
}

// TestDeadSwitchEvictsLearnedAndPending is the regression test for the
// failover state leak: once a switch is diagnosed dead, learned
// locations on it must be forgotten (flows fall back to flooding and
// find the host where it reappears) and pending flows from it dropped.
func TestDeadSwitchEvictsLearnedAndPending(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	delivered := make(map[model.SwitchID]int)
	ctrl, err := New(Config{
		Mode:              ModeLearning,
		Switches:          []model.SwitchID{1, 2, 3},
		Seed:              7,
		KeepAliveInterval: time.Second,
	}, n.Env(model.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	n.Attach(ctrl)
	n.SetSameGroup(ctrl.SameGroup)
	ctrl.Start()
	switches := make(map[model.SwitchID]*edge.Switch)
	for _, id := range []model.SwitchID{1, 2, 3} {
		id := id
		sw := edge.New(edge.Config{
			ID:                id,
			AdvertiseInterval: time.Second,
			OnDeliver:         func(p *model.Packet, at time.Duration) { delivered[id]++ },
		}, n.Env(id))
		n.Attach(sw)
		sw.Start()
		switches[id] = sw
	}
	switches[1].AttachHost(model.HostMAC(10), model.HostIP(10), 1)
	switches[2].AttachHost(model.HostMAC(50), model.HostIP(50), 1)
	s.RunFor(time.Second)

	// Host 50 speaks from switch 2 (controller learns it), then host 10
	// reaches it through an installed rule.
	switches[2].InjectLocal(pkt(50, 10))
	s.RunFor(time.Second)
	switches[1].InjectLocal(pkt(10, 50))
	s.RunFor(time.Second)
	if delivered[2] != 1 {
		t.Fatalf("warm flow not delivered to switch 2 (delivered=%v)", delivered)
	}
	if got := ctrl.LearnedLocations()[model.HostMAC(50)]; got != 2 {
		t.Fatalf("host 50 learned at %v, want 2", got)
	}
	// Seed a pending flow from the soon-dead ingress (the lazy-path
	// table is mode-independent state).
	ctrl.state.pending[model.HostMAC(99)] = []pendingFlow{{ingress: 2, since: s.Now().Duration()}}

	// Kill the switch and close the diagnosis (ungrouped learning mode
	// has no ring evidence, so Table I alone cannot conclude DiagSwitch;
	// the eviction path is what this test pins down).
	n.FailNode(2)
	ctrl.actOnDiagnosis(2, failover.DiagSwitch)
	s.RunFor(RuleIdleTimeout + time.Second) // let the stale rule on switch 1 idle out
	if !ctrl.IsDead(2) {
		t.Fatal("switch 2 not marked dead")
	}
	if _, ok := ctrl.LearnedLocations()[model.HostMAC(50)]; ok {
		t.Error("learned entry for a host on the dead switch survived diagnosis")
	}
	if ctrl.PendingFlows() != 0 {
		t.Error("pending flow from the dead ingress survived diagnosis")
	}
	st := ctrl.Stats()
	if st.LearnedEvicted == 0 || st.PendingEvicted == 0 {
		t.Errorf("eviction stats not counted: %+v", st)
	}

	// The host reappears on switch 3; traffic must reach it by flooding
	// instead of black-holing into the dead rule target.
	switches[3].AttachHost(model.HostMAC(50), model.HostIP(50), 1)
	floodsBefore := ctrl.Stats().Floods
	switches[1].InjectLocal(pkt(10, 50))
	s.RunFor(2 * time.Second)
	if ctrl.Stats().Floods == floodsBefore {
		t.Error("flow to the vanished host did not fall back to flooding")
	}
	if delivered[3] != 1 {
		t.Errorf("reappeared host never reached (delivered=%v)", delivered)
	}
}

// TestLFIBAnswerCreditsKeepalive is the regression test for the
// discarded `from`: a switch whose heartbeats are lost but which keeps
// answering ARP relays must not be suspected.
func TestLFIBAnswerCreditsKeepalive(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	c, err := New(Config{
		Mode:              ModeLazy,
		Switches:          []model.SwitchID{1},
		KeepAliveInterval: time.Second, // suspicion deadline 3 s
	}, n.Env(model.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	c.sw[1].lastAck, c.sw[1].acked = 0, true
	s.RunFor(2500 * time.Millisecond)
	c.handleLFIBAnswer(&openflow.LFIBUpdate{
		Origin:  1,
		Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(1), IP: model.HostIP(1), VLAN: 1}},
	})
	s.RunFor(1500 * time.Millisecond) // 4 s since the stale ack
	c.checkFailures()
	if got := c.Stats().KeepAliveLost; got != 0 {
		t.Errorf("chatty switch suspected: KeepAliveLost = %d", got)
	}
	if c.suspects() != 0 {
		t.Error("failure evidence accumulated against the answering switch")
	}
	if c.IsDead(1) {
		t.Error("answering switch marked dead")
	}
}

// TestLFIBAnswerTrustedOnlyFromOrigin: an ARP answer binds hosts only to
// the switch that sent it. S7 answering with Origin S5 used to place
// the host on S5 and send the pending flow's ingress S3 a FlowMod and a
// PacketOut toward S5; only S5's own answer may resolve the flow.
func TestLFIBAnswerTrustedOnlyFromOrigin(t *testing.T) {
	c, env := newDirectController(t, ModeLazy)
	target := model.HostID(42)
	c.HandleMessage(3, &openflow.PacketIn{Switch: 3, Reason: openflow.ReasonNoMatch, Packet: model.Packet{
		SrcMAC: model.HostMAC(1), DstMAC: model.HostMAC(target), DstIP: model.HostIP(target), VLAN: 1, Ether: model.EtherTypeIPv4,
	}})
	if c.PendingFlows() != 1 {
		t.Fatalf("PendingFlows = %d, want the one unresolved flow", c.PendingFlows())
	}
	answer := func(from model.SwitchID) {
		env.reset()
		c.HandleMessage(from, &openflow.LFIBUpdate{
			Origin:  5,
			Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(target), IP: model.HostIP(target), VLAN: 1}},
		})
	}
	answer(7)
	if sw, ok := c.CLIB().Locate(model.HostMAC(target)); ok {
		t.Errorf("S7's answer for S5 placed the host on %v", sw)
	}
	if sends := env.sendCounts(); len(sends) != 0 {
		t.Errorf("S7's answer for S5 caused sends: %v", sends)
	}
	if c.PendingFlows() != 1 {
		t.Errorf("S7's answer for S5 resolved the pending flow")
	}
	answer(5)
	if sw, ok := c.CLIB().Locate(model.HostMAC(target)); !ok || sw != 5 {
		t.Errorf("S5's own answer placed the host on %v (found %v), want S5", sw, ok)
	}
	if got := env.sendCounts()[3]; got != 2 {
		t.Errorf("S5's own answer sent %d messages to the ingress, want a FlowMod and a PacketOut", got)
	}
}

// TestIntakeBoundedBySwitches pins switchRecord's "bounded by
// construction" rule on the three intakes that name switches: a state
// report, an ARP answer and a standby's journal record naming S9999,
// which Config.Switches does not hold, grow neither the intensity
// matrix nor the C-LIB. A C-LIB binding there would make the next
// PacketIn install an Encap toward a switch that does not exist.
func TestIntakeBoundedBySwitches(t *testing.T) {
	const ghost = model.SwitchID(9999)
	binding := func(h model.HostID) []openflow.LFIBEntry {
		return []openflow.LFIBEntry{{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1}}
	}
	c, _ := newDirectController(t, ModeLazy)
	c.HandleMessage(1, &openflow.StateReport{
		Group: 1,
		LFIBs: []openflow.LFIBUpdate{{Origin: ghost, Full: true, Entries: binding(777), Version: 1}},
		Pairs: []openflow.PairStat{{A: 1, B: ghost, NewFlows: 5}},
	})
	c.HandleMessage(1, &openflow.LFIBUpdate{Origin: ghost, Entries: binding(778)})
	if got := c.intensity.NumSwitches(); got != 16 {
		t.Errorf("intensity matrix holds %d switches, want 16", got)
	}
	for _, h := range []model.HostID{777, 778} {
		if sw, ok := c.CLIB().Locate(model.HostMAC(h)); ok {
			t.Errorf("C-LIB places host %d on %v", h, sw)
		}
	}

	standby, err := New(Config{Mode: ModeLazy, Switches: switchList(16), Standby: true, Peer: model.ControllerNode}, newRecordingEnv())
	if err != nil {
		t.Fatal(err)
	}
	standby.HandleMessage(model.ControllerNode, &openflow.StateSyncRecord{
		Kind: openflow.SyncLFIB, Generation: 1, Origin: ghost, Full: true, Version: 1, Entries: binding(779),
	})
	if sw, ok := standby.CLIB().Locate(model.HostMAC(779)); ok {
		t.Errorf("standby C-LIB places host 779 on %v", sw)
	}
}

// ghostPacketIns delivers a PacketIn and a one-item PacketInBurst whose
// ingress is not a configured switch, from a source host 777 toward
// host 1, which the controller knows on switch 1. It reports the
// controller's sends.
func ghostPacketIns(c *Controller, env *recordingEnv) map[model.SwitchID]int {
	const ghost = model.SwitchID(9999)
	p := model.Packet{SrcMAC: model.HostMAC(777), DstMAC: model.HostMAC(1), SrcIP: model.HostIP(777), DstIP: model.HostIP(1), VLAN: 1, Ether: model.EtherTypeIPv4}
	env.reset()
	c.HandleMessage(ghost, &openflow.PacketIn{Switch: ghost, Reason: openflow.ReasonNoMatch, Packet: p})
	c.HandleMessage(ghost, &openflow.PacketInBurst{Switch: ghost, Items: []openflow.BurstPacket{{Reason: openflow.ReasonNoMatch, Packet: p}}})
	return env.sendCounts()
}

// TestPacketInBoundedBySwitchesLazy: a lazy controller skips a PacketIn
// from a switch outside Config.Switches; it used to register the switch
// in the intensity matrix.
func TestPacketInBoundedBySwitchesLazy(t *testing.T) {
	c, env := newDirectController(t, ModeLazy)
	c.CLIB().Update(model.HostMAC(1), model.HostIP(1), 1, 1, 1)
	if sends := ghostPacketIns(c, env); len(sends) != 0 {
		t.Errorf("ghost PacketIns caused sends: %v", sends)
	}
	if got := c.intensity.NumSwitches(); got != 16 {
		t.Errorf("intensity matrix holds %d switches, want 16", got)
	}
	if got := c.Stats().PacketIns; got != 0 {
		t.Errorf("PacketIns = %d, want 0", got)
	}
}

// TestPacketInBoundedBySwitchesLearning: a learning controller skips a
// PacketIn from a switch outside Config.Switches; it used to learn the
// source host on that switch.
func TestPacketInBoundedBySwitchesLearning(t *testing.T) {
	c, env := newDirectController(t, ModeLearning)
	c.HandleMessage(1, &openflow.PacketIn{Switch: 1, Packet: model.Packet{SrcMAC: model.HostMAC(1), DstMAC: model.HostMAC(2), VLAN: 1}})
	before := c.Stats().PacketIns
	if sends := ghostPacketIns(c, env); len(sends) != 0 {
		t.Errorf("ghost PacketIns caused sends: %v", sends)
	}
	if sw, ok := c.LearnedLocations()[model.HostMAC(777)]; ok {
		t.Errorf("learned host 777 on %v", sw)
	}
	if got := c.intensity.NumSwitches(); got != 16 {
		t.Errorf("intensity matrix holds %d switches, want 16", got)
	}
	if got := c.Stats().PacketIns - before; got != 0 {
		t.Errorf("PacketIns counted %d ghost events, want 0", got)
	}
}

// TestExpirePendingAliasSafe is the regression test for the flows[:0]
// rebuild: expiry must never write into a backing array a previous
// takePending caller may still hold.
func TestExpirePendingAliasSafe(t *testing.T) {
	c, _ := newDirectController(t, ModeLazy)
	mac := model.HostMAC(1)
	old := pendingFlow{ingress: 7, since: 0}
	fresh := pendingFlow{ingress: 8, since: 90 * time.Millisecond}
	c.state.pending[mac] = []pendingFlow{old, fresh}
	// Hold the internal backing array, as a resolver iterating flows
	// handed out by takePending would.
	held := c.state.pending[mac]
	if n := c.state.expirePending(100*time.Millisecond, 50*time.Millisecond); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	if held[0].ingress != 7 {
		t.Errorf("expiry overwrote a held slice: ingress = %v, want 7", held[0].ingress)
	}
	kept := c.state.pending[mac]
	if len(kept) != 1 || kept[0].ingress != 8 {
		t.Errorf("kept flows = %+v, want the fresh flow only", kept)
	}
}

// TestWireBurstMatchesSingleStripe pins wire-delivered bursts to the
// single-PacketIn path: the burst [A→B, C→A], with A never seen before,
// reaches the controller as one PacketInBurst through HandleMessage.
// Handled in input order, the first packet teaches the controller where
// A lives and the second finds it, exactly as when the same two
// PacketIns arrive one by one.
func TestWireBurstMatchesSingleStripe(t *testing.T) {
	a, b, c := model.HostID(1), model.HostID(2), model.HostID(3)
	items := []openflow.BurstPacket{
		{Reason: openflow.ReasonNoMatch, Packet: model.Packet{SrcMAC: model.HostMAC(a), DstMAC: model.HostMAC(b), VLAN: 1, Bytes: 1000}},
		{Reason: openflow.ReasonNoMatch, Packet: model.Packet{SrcMAC: model.HostMAC(c), DstMAC: model.HostMAC(a), VLAN: 1, Bytes: 1000}},
	}
	single, singleEnv := newDirectController(t, ModeLearning)
	for _, it := range items {
		single.HandleMessage(1, &openflow.PacketIn{Switch: 1, Reason: it.Reason, Packet: it.Packet})
	}
	want := single.Stats()
	if want.PacketIns != 2 || want.Floods != 1 || want.PacketOuts != 1 {
		t.Fatalf("one-by-one reference %+v: want A→B flooded and C→A answered", want)
	}
	burst, burstEnv := newDirectController(t, ModeLearning)
	burst.HandleMessage(1, &openflow.PacketInBurst{Switch: 1, Items: items})
	if got := burst.Stats(); got != want {
		t.Errorf("wire burst diverged from the one-by-one run:\n got  %+v\n want %+v", got, want)
	}
	if !reflect.DeepEqual(burst.LearnedLocations(), single.LearnedLocations()) {
		t.Error("learned tables differ between the wire burst and the one-by-one run")
	}
	if !reflect.DeepEqual(burstEnv.sendCounts(), singleEnv.sendCounts()) {
		t.Errorf("send counts differ: %v vs %v", burstEnv.sendCounts(), singleEnv.sendCounts())
	}
}

// clibEntries lists the C-LIB's bindings switch by switch.
func clibEntries(c *Controller) []openflow.LFIBEntry {
	var out []openflow.LFIBEntry
	for _, sw := range c.cfg.Switches {
		out = append(out, c.clib.EntriesOn(sw)...)
	}
	return out
}
