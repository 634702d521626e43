package controller

import (
	"math/rand/v2"
	"reflect"
	"sync"
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
// time stands still. Sends may arrive from the burst apply phase and
// from immediate timer callbacks on the same goroutine only.
type recordingEnv struct {
	mu    sync.Mutex
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
	e.mu.Lock()
	e.sends[to] = append(e.sends[to], msg)
	e.mu.Unlock()
}

func (e *recordingEnv) sendCounts() map[model.SwitchID]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[model.SwitchID]int, len(e.sends))
	for to, msgs := range e.sends {
		out[to] = len(msgs)
	}
	return out
}

func (e *recordingEnv) reset() {
	e.mu.Lock()
	e.sends = make(map[model.SwitchID][]netsim.Message)
	e.mu.Unlock()
}

func switchList(n int) []model.SwitchID {
	ids := make([]model.SwitchID, n)
	for i := range ids {
		ids[i] = model.SwitchID(i + 1)
	}
	return ids
}

func newDirectController(t *testing.T, mode Mode, shards int) (*Controller, *recordingEnv) {
	t.Helper()
	env := newRecordingEnv()
	c, err := New(Config{
		Mode:        mode,
		Switches:    switchList(16),
		Seed:        7,
		StateShards: shards,
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

// warmLearning teaches the controller every host location through the
// sequential path, so burst decisions are interleaving-independent.
func warmLearning(c *Controller) {
	for h := model.HostID(1); h <= 256; h++ {
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

// TestBurstShardDifferential drives the same storm through a
// single-shard controller and an 8-shard controller and asserts the
// final C-LIB, learned, and pending state — and the visible stats —
// are identical (learning mode).
func TestBurstShardDifferential(t *testing.T) {
	batch := stormBatch(4096, 11)
	run := func(shards int) (*Controller, *recordingEnv) {
		c, env := newDirectController(t, ModeLearning, shards)
		warmLearning(c)
		env.reset()
		c.ProcessBurst(batch)
		return c, env
	}
	c1, env1 := run(1)
	c8, env8 := run(8)
	if c1.StateShardCount() != 1 || c8.StateShardCount() != 8 {
		t.Fatalf("shard counts = %d/%d, want 1/8", c1.StateShardCount(), c8.StateShardCount())
	}
	if !reflect.DeepEqual(c1.LearnedLocations(), c8.LearnedLocations()) {
		t.Error("learned tables differ between shard counts")
	}
	if !reflect.DeepEqual(c1.state.snapshotPending(), c8.state.snapshotPending()) {
		t.Error("pending tables differ between shard counts")
	}
	if c1.CLIB().Len() != 0 || c8.CLIB().Len() != 0 {
		t.Error("learning mode touched the C-LIB")
	}
	if c1.Stats() != c8.Stats() {
		t.Errorf("stats differ:\n 1 shard: %+v\n 8 shards: %+v", c1.Stats(), c8.Stats())
	}
	if !reflect.DeepEqual(env1.sendCounts(), env8.sendCounts()) {
		t.Errorf("send counts differ: %v vs %v", env1.sendCounts(), env8.sendCounts())
	}
	if got := c1.Stats().PacketIns; got != 4096+256 { // storm + warmup
		t.Errorf("PacketIns = %d, want %d", got, 4096+256)
	}
	if c1.Stats().Floods == 0 || c1.Stats().FlowModsSent == 0 {
		t.Errorf("storm exercised no floods or installs: %+v", c1.Stats())
	}
}

// TestBurstShardDifferentialLazy repeats the differential in lazy mode:
// C-LIB hits install rules, misses queue pending flows; both tables
// must match the single-shard result, including per-MAC queue order.
func TestBurstShardDifferentialLazy(t *testing.T) {
	batch := stormBatch(4096, 13)
	run := func(shards int) *Controller {
		c, _ := newDirectController(t, ModeLazy, shards)
		for h := model.HostID(1); h <= 256; h++ {
			c.CLIB().Update(model.HostMAC(h), model.HostIP(h), 1, model.SwitchID(uint32(h)%16+1), 1)
		}
		c.ProcessBurst(batch)
		return c
	}
	c1 := run(1)
	c8 := run(8)
	p1, p8 := c1.state.snapshotPending(), c8.state.snapshotPending()
	if !reflect.DeepEqual(p1, p8) {
		t.Errorf("pending tables differ: %d vs %d MACs", len(p1), len(p8))
	}
	if c1.CLIB().Len() != c8.CLIB().Len() {
		t.Error("C-LIB sizes differ")
	}
	if c1.Stats() != c8.Stats() {
		t.Errorf("stats differ:\n 1 shard: %+v\n 8 shards: %+v", c1.Stats(), c8.Stats())
	}
	if c1.PendingFlows() == 0 {
		t.Error("storm queued no pending flows")
	}
}

// TestBatchedGroupPush asserts the regroup push invariant: at most one
// OpenFlow message per destination switch per round, with the
// GroupConfig leading its preloads.
func TestBatchedGroupPush(t *testing.T) {
	c, env := newDirectController(t, ModeLazy, 4)
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
	// Populate the C-LIB and re-push as a membership-changing regroup
	// round (clearing every push fingerprint stands in for SGI having
	// reshaped every group; an unchanged destination is skipped by
	// design).
	for h := model.HostID(1); h <= 64; h++ {
		sw := model.SwitchID(uint32(h)%16 + 1)
		c.CLIB().Update(model.HostMAC(h), model.HostIP(h), 1, sw, c.Grouping().GroupOf(sw))
	}
	env.reset()
	c.pushedMembers = make(map[model.GroupID]uint64)
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
	env.mu.Lock()
	defer env.mu.Unlock()
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
		RuleIdleTimeout:   3 * time.Second,
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
	ctrl.state.appendPending(model.HostMAC(99), pendingFlow{ingress: 2, since: s.Now().Duration()})

	// Kill the switch and close the diagnosis (ungrouped learning mode
	// has no ring evidence, so Table I alone cannot conclude DiagSwitch;
	// the eviction path is what this test pins down).
	n.FailNode(2)
	ctrl.actOnDiagnosis(2, failover.DiagSwitch)
	s.RunFor(4 * time.Second) // let the stale rule on switch 1 idle out
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
	c.handleLFIBAnswer(1, &openflow.LFIBUpdate{
		Origin:  1,
		Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(1), IP: model.HostIP(1), VLAN: 1}},
	})
	s.RunFor(1500 * time.Millisecond) // 4 s since the stale ack
	c.checkFailures()
	if got := c.Stats().KeepAliveLost; got != 0 {
		t.Errorf("chatty switch suspected: KeepAliveLost = %d", got)
	}
	if c.detector.Pending() != 0 {
		t.Error("failure evidence accumulated against the answering switch")
	}
	if c.IsDead(1) {
		t.Error("answering switch marked dead")
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
	c, _ := newDirectController(t, ModeLazy, 4)
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

// TestExpirePendingAliasSafe is the regression test for the flows[:0]
// rebuild: expiry must never write into a backing array a previous
// takePending caller may still hold.
func TestExpirePendingAliasSafe(t *testing.T) {
	c, _ := newDirectController(t, ModeLazy, 1)
	mac := model.HostMAC(1)
	old := pendingFlow{ingress: 7, since: 0}
	fresh := pendingFlow{ingress: 8, since: 90 * time.Millisecond}
	c.state.appendPending(mac, old)
	c.state.appendPending(mac, fresh)
	// Hold the internal backing array, as a resolver iterating flows
	// handed out by takePending would.
	held := c.state.shardFor(mac).pending[mac]
	if n := c.state.expirePending(100*time.Millisecond, 50*time.Millisecond); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	if held[0].ingress != 7 {
		t.Errorf("expiry overwrote a held slice: ingress = %v, want 7", held[0].ingress)
	}
	kept := c.state.snapshotPending()[mac]
	if len(kept) != 1 || kept[0].ingress != 8 {
		t.Errorf("kept flows = %+v, want the fresh flow only", kept)
	}
}

// TestPendingConcurrentChurn exercises append/take/expire from many
// goroutines; under -race it proves the pending path is stripe-safe.
func TestPendingConcurrentChurn(t *testing.T) {
	c, _ := newDirectController(t, ModeLazy, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				mac := model.HostMAC(model.HostID(i % 37))
				c.state.appendPending(mac, pendingFlow{
					ingress: model.SwitchID(g + 1),
					since:   time.Duration(i) * time.Millisecond,
				})
				if i%3 == 0 {
					for _, f := range c.state.takePending(mac) {
						_ = f.ingress
					}
				}
				if i%7 == 0 {
					c.state.expirePending(time.Duration(i)*time.Millisecond, 100*time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStateShardRoundUp pins the power-of-two rounding.
func TestStateShardRoundUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		if got := newStateShards(tc.in).count(); got != tc.want {
			t.Errorf("newStateShards(%d) = %d shards, want %d", tc.in, got, tc.want)
		}
	}
	// Absurd shard requests are capped (the burst workers index shards
	// with uint16 ids; a stripe per core is plenty anyway).
	if got := (Config{Mode: ModeLazy, StateShards: 1 << 20}).withDefaults().StateShards; got != 1024 {
		t.Errorf("StateShards cap = %d, want 1024", got)
	}
	// Every MAC must land inside the table for odd sizes too.
	tbl := newStateShards(4)
	for h := model.HostID(0); h < 10_000; h++ {
		idx := tbl.shardIndex(model.HostMAC(h))
		if idx < 0 || idx >= tbl.count() {
			t.Fatalf("shardIndex(%v) = %d out of range", model.HostMAC(h), idx)
		}
	}
}

// TestWireBurstMatchesSingleStripe pins wire-delivered bursts to input
// order: the burst [A→B, C→A], with A never seen before, reaches the
// controller as one PacketInBurst through HandleMessage. Decided in
// input order the first packet teaches the controller where A lives and
// the second finds it; fanned out across stripes the second packet's
// worker usually wins the race and floods instead, so the outcome of a
// "deterministic" emulation would hang on goroutine scheduling. Every
// repetition at 8 stripes must equal the 1-stripe result.
func TestWireBurstMatchesSingleStripe(t *testing.T) {
	probe, _ := newDirectController(t, ModeLearning, 8)
	a, b, c := model.HostID(1), model.HostID(2), model.HostID(3)
	for probe.state.shardIndex(model.HostMAC(b)) == probe.state.shardIndex(model.HostMAC(a)) {
		b += 2 // the race needs the two destinations on different stripes
	}
	item := func(src, dst model.HostID) openflow.BurstPacket {
		return openflow.BurstPacket{
			Reason: openflow.ReasonNoMatch,
			Packet: model.Packet{SrcMAC: model.HostMAC(src), DstMAC: model.HostMAC(dst), VLAN: 1, Bytes: 1000},
		}
	}
	run := func(shards int) Stats {
		ctrl, _ := newDirectController(t, ModeLearning, shards)
		ctrl.HandleMessage(1, &openflow.PacketInBurst{
			Switch: 1,
			Items:  []openflow.BurstPacket{item(a, b), item(c, a)},
		})
		return ctrl.Stats()
	}
	want := run(1)
	if want.PacketIns != 2 || want.Floods != 1 || want.PacketOuts != 1 {
		t.Fatalf("single-stripe reference %+v: want A→B flooded and C→A answered", want)
	}
	for i := 0; i < 500; i++ {
		if got := run(8); got != want {
			t.Fatalf("repetition %d at 8 stripes diverged from the single-stripe run:\n got  %+v\n want %+v", i, got, want)
		}
	}
}
