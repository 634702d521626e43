package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/controller"
	"lazyctrl/internal/edge"
	"lazyctrl/internal/eval"
	"lazyctrl/internal/fib"
	"lazyctrl/internal/graph"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/metrics"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/replay"
	"lazyctrl/internal/sim"
	"lazyctrl/internal/telemetry"
	"lazyctrl/internal/trace"
)

// Layer drivers: the benchmark builds each layer through its public
// constructor, drives it with paper-shaped inputs (a group of 46 switches,
// 24 hosts per switch, the default filter geometry, a 272-switch data
// center), and times its own calls. Nothing inside the layers is touched.

const (
	groupSize      = 46
	hostsPerSwitch = 24
	dcSwitches     = 272
	// driverBatches is how many equal batches each unit cost is timed
	// over; the median batch is reported.
	driverBatches = 5
)

// driverRun collects the unit costs and one span per driver.
type driverRun struct {
	seed   uint64
	sz     sizes
	spans  *spanLog
	parent int
	values map[string]float64
}

// unit times driverBatches runs of batch, which makes some fixed number
// of calls into a layer and returns that number, and records the median
// cost per call under name in the unit the name ends in.
func (r *driverRun) unit(name string, batch func() int) {
	id := r.spans.start(name, r.parent)
	per := make([]float64, driverBatches)
	for i := range per {
		start := time.Now()
		calls := batch()
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}
	r.spans.end(id)
	r.values[name] = median(per) / unitScale(name)
}

// n scales a driver's call count: the full count in a real run, a fraction
// of it in the short test pass.
func (r *driverRun) n(full int) int { return max(full/r.sz.driverDiv, 2) }

// unitScale is how many nanoseconds one unit of the named metric is.
func unitScale(name string) float64 {
	for _, m := range perLayer {
		if m.Name == name {
			switch m.Unit {
			case "us":
				return 1e3
			case "ms":
				return 1e6
			}
		}
	}
	return 1
}

// sinkEnv is a netsim.Env with no underlay behind it: sends are counted,
// timers fire inline, periodic tasks never run. It is the same isolation
// eval's storm driver uses for the controller.
type sinkEnv struct {
	sends uint64
	rng   *rand.Rand
}

func newSinkEnv(seed uint64) *sinkEnv { return &sinkEnv{rng: rand.New(rand.NewPCG(seed, 0x51))} }

func (e *sinkEnv) Now() time.Duration                      { return 0 }
func (e *sinkEnv) After(_ time.Duration, fn func()) func() { fn(); return func() {} }
func (e *sinkEnv) Every(time.Duration, func()) func()      { return func() {} }
func (e *sinkEnv) Send(model.SwitchID, netsim.Message)     { e.sends++ }
func (e *sinkEnv) Rand() *rand.Rand                        { return e.rng }

// nopNode is an attached node that ignores what it is sent.
type nopNode model.SwitchID

func (n nopNode) NodeID() model.SwitchID                     { return model.SwitchID(n) }
func (nopNode) HandleMessage(model.SwitchID, netsim.Message) {}

// hostOn numbers the hosts of the driver topology: host h of switch sw.
func hostOn(sw model.SwitchID, h int) model.HostID {
	return model.HostID(int(sw)*hostsPerSwitch + h + 1)
}

func wireEntries(sw model.SwitchID) []openflow.LFIBEntry {
	out := make([]openflow.LFIBEntry, hostsPerSwitch)
	for h := range out {
		id := hostOn(sw, h)
		out[h] = openflow.LFIBEntry{MAC: model.HostMAC(id), IP: model.HostIP(id), VLAN: 1}
	}
	return out
}

func dataPacket(src, dst model.HostID) model.Packet {
	return model.Packet{
		SrcMAC: model.HostMAC(src), DstMAC: model.HostMAC(dst),
		SrcIP: model.HostIP(src), DstIP: model.HostIP(dst),
		VLAN: 1, Ether: model.EtherTypeIPv4, Bytes: 1400,
	}
}

func groupMembers() []model.SwitchID {
	out := make([]model.SwitchID, groupSize)
	for i := range out {
		out[i] = model.SwitchID(i + 1)
	}
	return out
}

// communityIntensity is a traffic matrix of k communities of size n with
// heavy intra-community and light scattered inter-community traffic.
func communityIntensity(k, n int, seed uint64) *grouping.Intensity {
	rng := rand.New(rand.NewPCG(seed, 0xc0))
	m := grouping.NewIntensity()
	total := k * n
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			a := model.SwitchID(c*n + i + 1)
			m.AddSwitch(a)
			for j := 0; j < 6; j++ {
				b := model.SwitchID(c*n + rng.IntN(n) + 1)
				m.Add(a, b, 50+rng.Float64()*100)
			}
			m.Add(a, model.SwitchID(rng.IntN(total)+1), 1+rng.Float64()*4)
		}
	}
	return m
}

// communityGraph is the same shape as a graph: k clusters of n vertices.
func communityGraph(k, n int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 0xc1))
	b := graph.NewBuilder(k * n)
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			u := c*n + i
			for j := 0; j < 6; j++ {
				b.AddEdge(u, c*n+rng.IntN(n), int64(50+rng.IntN(100)))
			}
			b.AddEdge(u, rng.IntN(k*n), int64(1+rng.IntN(4)))
		}
	}
	return b.Build()
}

// runDrivers times every layer's unit costs.
func runDrivers(seed uint64, sz sizes, spans *spanLog, parent int) (map[string]float64, error) {
	r := &driverRun{seed: seed, sz: sz, spans: spans, parent: parent, values: make(map[string]float64)}
	for _, drive := range []func(*driverRun) error{
		driveSim, driveNetsim, driveCodec, driveBloom, driveFIB, driveEdge, driveController,
		driveGrouping, driveTrace, driveReplay, driveTelemetry,
	} {
		if err := drive(r); err != nil {
			return nil, err
		}
	}
	return r.values, nil
}

func driveSim(r *driverRun) error {
	r.unit("sim.event_ns", func() int {
		// Each executed event schedules its successor: the dominant
		// pattern of the emulation harness.
		n := r.n(200_000)
		s := sim.New(r.seed)
		remaining := n
		var tick func()
		tick = func() {
			if remaining--; remaining > 0 {
				s.After(time.Millisecond, tick)
			}
		}
		s.After(time.Millisecond, tick)
		s.Run()
		return n
	})
	r.unit("sim.timer_stop_ns", func() int {
		// Schedule then cancel: rule idle timeouts, ARP expiry.
		n := r.n(100_000)
		s := sim.New(r.seed)
		for i := 0; i < n; i++ {
			t := s.After(time.Second, func() {})
			t.Stop()
			s.RunFor(2 * time.Second)
		}
		return n
	})
	r.unit("sim.elide_round_ns", func() int {
		// One bulk event: a fold of 4096 quiescent rounds settled in
		// closed form plus the real round that follows it.
		bulks := r.n(20_000)
		s := sim.New(r.seed)
		var rounds int
		s.EveryElidable(time.Second, func() { rounds++ }, func() int { return 4096 }, func(n int) { rounds += n })
		s.RunUntil(sim.Time(bulks) * 4097 * sim.Time(time.Second))
		return bulks
	})
	return nil
}

func driveNetsim(r *driverRun) error {
	r.unit("netsim.send_deliver_ns", func() int {
		n := r.n(100_000)
		s := sim.New(r.seed)
		net := netsim.New(s, netsim.DefaultLatencies())
		net.Attach(nopNode(1))
		net.Attach(nopNode(2))
		env := net.Env(1)
		msg := &openflow.KeepAlive{From: 1}
		for i := 0; i < n; i += 64 {
			for j := i; j < min(i+64, n); j++ {
				env.Send(2, msg)
			}
			s.RunFor(time.Second)
		}
		return n
	})
	return nil
}

func driveCodec(r *driverRun) error {
	pkt := dataPacket(hostOn(1, 0), hostOn(2, 0))
	burst := &openflow.PacketInBurst{Switch: 1}
	for i := 0; i < 8; i++ {
		burst.Items = append(burst.Items, openflow.BurstPacket{Reason: openflow.ReasonNoMatch, Packet: pkt})
	}
	filter := fib.FilterFromWireEntries(wireEntries(2), fib.DefaultFilterBits, fib.DefaultFilterHashes)
	filterBytes, err := filter.MarshalBinary()
	if err != nil {
		return err
	}
	update := &openflow.GFIBUpdate{Group: 1, Version: 7}
	delta := &openflow.GFIBDelta{Group: 1, Version: 7}
	report := &openflow.StateReport{Group: 1, Version: 7}
	for _, sw := range groupMembers()[1:] {
		update.Filters = append(update.Filters, openflow.GFIBFilter{Switch: sw, Filter: filterBytes, Version: 3})
	}
	for _, sw := range groupMembers()[1:5] {
		words := make([]bloom.WordDelta, fib.DefaultFilterHashes)
		for i := range words {
			words[i] = bloom.WordDelta{Index: uint32(i * 17), Word: 0xdeadbeef << i}
		}
		delta.Deltas = append(delta.Deltas, openflow.GFIBFilterDelta{Switch: sw, BaseVersion: 3, TargetVersion: 4, Words: words})
		report.LFIBs = append(report.LFIBs, openflow.LFIBUpdate{Origin: sw, Entries: wireEntries(sw)[:3], Version: 4})
	}
	for i := 0; i < 16; i++ {
		report.Pairs = append(report.Pairs, openflow.PairStat{A: 1, B: model.SwitchID(50 + i), NewFlows: uint32(i + 1)})
	}
	for _, c := range []struct {
		name string
		n    int
		msg  openflow.Message
	}{
		{"openflow.codec_packetin_ns", 50_000, &openflow.PacketIn{Switch: 1, Reason: openflow.ReasonNoMatch, Packet: pkt}},
		{"openflow.codec_packetinburst_ns", 10_000, burst},
		{"openflow.codec_flowmod_ns", 50_000, &openflow.FlowMod{Command: openflow.FlowAdd, Match: openflow.ExactDst(pkt.DstMAC, 1),
			Priority: 100, IdleTimeout: time.Minute, Actions: []openflow.Action{openflow.Encap(2)}}},
		{"openflow.codec_groupconfig_ns", 20_000, &openflow.GroupConfig{Group: 1, Members: groupMembers(), Designated: 1,
			Backups: []model.SwitchID{2, 3}, RingPrev: 46, RingNext: 2, SyncInterval: 30 * time.Second,
			KeepAliveInterval: time.Minute, Version: 7, Generation: 1}},
		{"openflow.codec_gfibupdate_ns", 500, update},
		{"openflow.codec_gfibdelta_ns", 20_000, delta},
		{"openflow.codec_statereport_ns", 20_000, report},
		{"openflow.codec_keepalive_ns", 100_000, &openflow.KeepAlive{From: 1, Seq: 9, Generation: 1}},
	} {
		var failed error
		r.unit(c.name, func() int {
			n := r.n(c.n)
			for i := 0; i < n; i++ {
				data, err := openflow.Encode(c.msg, uint32(i))
				if err == nil {
					_, _, err = openflow.Decode(data)
				}
				if err != nil {
					failed = err
				}
			}
			return n
		})
		if failed != nil {
			return fmt.Errorf("%s: %w", c.name, failed)
		}
	}
	return nil
}

func driveBloom(r *driverRun) error {
	newFilter := func(hosts int) *bloom.Filter {
		f := bloom.New(fib.DefaultFilterBits, fib.DefaultFilterHashes)
		for h := 0; h < hosts; h++ {
			f.AddUint64(fib.MACKey(model.HostMAC(hostOn(2, h))))
		}
		return f
	}
	n := r.n(200_000)
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = fib.MACKey(model.HostMAC(model.HostID(i + 1)))
	}
	r.unit("bloom.add_ns", func() int {
		f := bloom.New(fib.DefaultFilterBits, fib.DefaultFilterHashes)
		for i := 0; i < n; i++ {
			f.AddUint64(keys[i%len(keys)])
		}
		return n
	})
	var hits int
	r.unit("bloom.test_ns", func() int {
		f := newFilter(hostsPerSwitch)
		for i := 0; i < n; i++ {
			if f.TestUint64(keys[i%len(keys)]) {
				hits++
			}
		}
		return n
	})
	// One host arrival: the delta between a filter of 24 and of 25 hosts.
	old, cur := newFilter(hostsPerSwitch), newFilter(hostsPerSwitch+1)
	var failed error
	r.unit("bloom.diffwords_ns", func() int {
		n := r.n(50_000)
		for i := 0; i < n; i++ {
			if _, err := cur.DiffWords(old); err != nil {
				failed = err
			}
		}
		return n
	})
	forward, err := cur.DiffWords(old)
	if err != nil {
		return err
	}
	back, err := old.DiffWords(cur)
	if err != nil {
		return err
	}
	r.unit("bloom.applywords_ns", func() int {
		f := old.Clone()
		for i := 0; i < n; i += 2 {
			if err := f.ApplyWords(forward); err != nil {
				failed = err
			}
			if err := f.ApplyWords(back); err != nil {
				failed = err
			}
		}
		return n
	})
	return failed
}

func driveFIB(r *driverRun) error {
	// A member's G-FIB: one filter per peer of a full group.
	g := fib.NewGFIB()
	for _, sw := range groupMembers()[1:] {
		g.SetFilter(sw, fib.FilterFromWireEntries(wireEntries(sw), fib.DefaultFilterBits, fib.DefaultFilterHashes))
	}
	var found int
	r.unit("fib.gfib_query_ns", func() int {
		// Half the probes name a host of a peer, half a host outside.
		n := r.n(20_000)
		for i := 0; i < n; i++ {
			sw := model.SwitchID(2 + i%(groupSize-1))
			if i%2 == 1 {
				sw += dcSwitches
			}
			found += len(g.Query(model.HostMAC(hostOn(sw, i%hostsPerSwitch))))
		}
		return n
	})
	var failed error
	{
		old := fib.FilterFromWireEntries(wireEntries(2), fib.DefaultFilterBits, fib.DefaultFilterHashes)
		cur := fib.FilterFromWireEntries(append(wireEntries(2), wireEntries(3)[0]), fib.DefaultFilterBits, fib.DefaultFilterHashes)
		forward, err := cur.DiffWords(old)
		if err != nil {
			return err
		}
		back, err := old.DiffWords(cur)
		if err != nil {
			return err
		}
		version := uint64(1)
		data, err := old.MarshalBinary()
		if err != nil {
			return err
		}
		if err := g.SetFilterBytes(2, data, version); err != nil {
			return err
		}
		r.unit("fib.gfib_apply_delta_ns", func() int {
			n := r.n(100_000)
			for i := 0; i < n; i += 2 {
				if err := g.ApplyDelta(2, version, version+1, forward); err != nil {
					failed = err
				}
				if err := g.ApplyDelta(2, version+1, version+2, back); err != nil {
					failed = err
				}
				version += 2
			}
			return n
		})
	}
	// The controller's view of the whole data center.
	clib := fib.NewCLIB()
	for sw := model.SwitchID(1); sw <= dcSwitches; sw++ {
		clib.ApplyLFIB(sw, model.GroupID(1+int(sw-1)/groupSize), &openflow.LFIBUpdate{Origin: sw, Full: true, Entries: wireEntries(sw), Version: 1})
	}
	r.unit("fib.clib_locate_ns", func() int {
		n := r.n(200_000)
		for i := 0; i < n; i++ {
			if _, ok := clib.Locate(model.HostMAC(hostOn(model.SwitchID(1+i%dcSwitches), i%hostsPerSwitch))); ok {
				found++
			}
		}
		return n
	})
	r.unit("fib.clib_apply_lfib_ns", func() int {
		// A report-chain increment: three bindings of one switch.
		n := r.n(50_000)
		for i := 0; i < n; i++ {
			sw := model.SwitchID(1 + i%dcSwitches)
			clib.ApplyLFIB(sw, 1, &openflow.LFIBUpdate{Origin: sw, Entries: wireEntries(sw)[i%8 : i%8+3], Version: 2})
		}
		return n
	})
	lfib := fib.NewLFIB()
	for _, e := range wireEntries(1) {
		lfib.Learn(e.MAC, e.IP, e.VLAN, 1, 0)
	}
	local := wireEntries(1)
	r.unit("fib.lfib_learn_ns", func() int {
		// The per-packet refresh of a known source.
		n := r.n(200_000)
		for i := 0; i < n; i++ {
			e := &local[i%hostsPerSwitch]
			lfib.Learn(e.MAC, e.IP, e.VLAN, 1, time.Duration(i))
		}
		return n
	})
	r.unit("fib.lfib_lookup_ns", func() int {
		n := r.n(200_000)
		for i := 0; i < n; i++ {
			if lfib.Lookup(local[i%hostsPerSwitch].MAC) != nil {
				found++
			}
		}
		return n
	})
	return failed
}

func driveEdge(r *driverRun) error {
	// Switch 1 of a full group: its hosts attached, a filter per peer
	// installed the way a designated switch disseminates them, and a
	// warm exact-dst rule per host of switch 50 (outside the group).
	env := newSinkEnv(r.seed)
	var delivered int
	sw := edge.New(edge.Config{ID: 1, OnDeliver: func(*model.Packet, time.Duration) { delivered++ }}, env)
	for _, e := range wireEntries(1) {
		sw.AttachHost(e.MAC, e.IP, e.VLAN)
	}
	sw.HandleMessage(model.ControllerNode, &openflow.GroupConfig{Group: 1, Members: groupMembers(), Designated: 2,
		RingPrev: groupSize, RingNext: 2, SyncInterval: 30 * time.Second, KeepAliveInterval: time.Minute, Version: 1})
	update := &openflow.GFIBUpdate{Group: 1, Version: 1}
	for _, peer := range groupMembers()[1:] {
		data, err := fib.FilterBytesFromWireEntries(wireEntries(peer), fib.DefaultFilterBits, fib.DefaultFilterHashes)
		if err != nil {
			return err
		}
		update.Filters = append(update.Filters, openflow.GFIBFilter{Switch: peer, Filter: data, Version: 1})
	}
	sw.HandleMessage(2, update)
	const remote = model.SwitchID(50)
	for _, e := range wireEntries(remote) {
		sw.HandleMessage(model.ControllerNode, &openflow.FlowMod{Command: openflow.FlowAdd, Match: openflow.ExactDst(e.MAC, e.VLAN),
			Priority: 100, Actions: []openflow.Action{openflow.Encap(remote)}})
	}
	if got := len(sw.GFIB().Peers()); got != groupSize-1 {
		return fmt.Errorf("edge driver: %d peer filters installed, want %d", got, groupSize-1)
	}
	// inject sends n first packets from local hosts to hosts of dst.
	inject := func(n int, dst model.SwitchID) {
		for i := 0; i < n; i++ {
			p := dataPacket(hostOn(1, i%hostsPerSwitch), hostOn(dst, (i+1)%hostsPerSwitch))
			sw.InjectLocal(&p)
		}
	}
	n := r.n(50_000)
	r.unit("edge.flowhit_ns", func() int { inject(n, remote); return n })
	r.unit("edge.local_deliver_ns", func() int { inject(n, 1); return n })
	r.unit("edge.gfib_encap_ns", func() int { inject(n/4, 7); return n / 4 })
	r.unit("edge.escalate_ns", func() int { inject(n/4, dcSwitches+1); return n / 4 })
	r.unit("edge.remote_decap_ns", func() int {
		for i := 0; i < n; i++ {
			p := dataPacket(hostOn(7, i%hostsPerSwitch), hostOn(1, (i+1)%hostsPerSwitch))
			p.Encap = &model.EncapHeader{SrcSwitch: 7, DstSwitch: 1}
			p.Bytes += model.EncapOverheadBytes
			sw.HandleMessage(7, &p)
		}
		return n
	})
	st := sw.Stats()
	if st.EncapSent == 0 || st.PacketIns == 0 || delivered == 0 || st.FalsePositiveDrops > 0 {
		return fmt.Errorf("edge driver took the wrong paths: %+v delivered=%d", st, delivered)
	}
	return nil
}

func driveController(r *driverRun) error {
	// Learning mode: the storm's warmed controller, one PacketIn at a
	// time through the sequential path, then in bursts through the
	// sharded intake.
	storm, err := eval.NewStorm(eval.StormConfig{Switches: dcSwitches, Hosts: r.sz.stormHosts,
		Events: r.n(2048), Shards: stormShards, Seed: r.seed})
	if err != nil {
		return err
	}
	r.unit("controller.packetin_learning_ns", func() int {
		for i := range storm.Batch {
			storm.Ctrl.HandleMessage(storm.Batch[i].Switch, &storm.Batch[i])
		}
		return len(storm.Batch)
	})
	bursts := r.n(160)
	id := r.spans.start("controller.burst", r.parent)
	ms := make([]float64, bursts)
	var total time.Duration
	for i := range ms {
		start := time.Now()
		storm.Run()
		d := time.Since(start)
		total += d
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	r.spans.end(id)
	r.values["controller.burst_ns_per_packetin"] = float64(total.Nanoseconds()) / float64(bursts*len(storm.Batch))
	r.values["controller.burst_ms_p50"] = quantile(ms, 0.5)
	r.values["controller.burst_ms_p90"] = quantile(ms, 0.9)

	// Lazy mode: six groups of 46, every host in the C-LIB.
	const groups = 6
	switches := make([]model.SwitchID, groups*groupSize)
	for i := range switches {
		switches[i] = model.SwitchID(i + 1)
	}
	env := newSinkEnv(r.seed)
	ctrl, err := controller.New(controller.Config{Mode: controller.ModeLazy, Switches: switches,
		GroupSizeLimit: groupSize, Seed: r.seed}, env)
	if err != nil {
		return err
	}
	ctrl.RegisterTenant(1, 1)
	if err := ctrl.InitialGrouping(communityIntensity(groups, groupSize, r.seed)); err != nil {
		return err
	}
	for _, sw := range switches {
		ctrl.HandleMessage(sw, &openflow.StateReport{Group: ctrl.Grouping().GroupOf(sw),
			LFIBs: []openflow.LFIBUpdate{{Origin: sw, Full: true, Entries: wireEntries(sw), Version: 1}}})
	}
	r.unit("controller.packetin_lazy_ns", func() int {
		// An inter-group first packet: locate, install, forward.
		n := r.n(20_000)
		for i := 0; i < n; i++ {
			from := switches[i%len(switches)]
			to := switches[(i+groupSize*2)%len(switches)]
			ctrl.HandleMessage(from, &openflow.PacketIn{Switch: from, Reason: openflow.ReasonNoMatch,
				Packet: dataPacket(hostOn(from, i%hostsPerSwitch), hostOn(to, (i+1)%hostsPerSwitch))})
		}
		return n
	})
	if st := ctrl.Stats(); st.FlowModsSent == 0 || st.Unresolved > 0 {
		return fmt.Errorf("controller driver took the wrong path: %+v", st)
	}
	version := uint64(1)
	r.unit("controller.state_report_ns", func() int {
		// A designated switch's periodic report: four members' L-FIB
		// increments and sixteen pair counters.
		n := r.n(10_000)
		for i := 0; i < n; i++ {
			designated := switches[(i*groupSize)%len(switches)]
			version++
			rep := &openflow.StateReport{Group: ctrl.Grouping().GroupOf(designated), Version: version}
			for j := 0; j < 4; j++ {
				member := designated + model.SwitchID(j)
				rep.LFIBs = append(rep.LFIBs, openflow.LFIBUpdate{Origin: member, Entries: wireEntries(member)[:3], Version: version})
			}
			for j := 0; j < 16; j++ {
				rep.Pairs = append(rep.Pairs, openflow.PairStat{A: designated, B: switches[(i+j*17)%len(switches)], NewFlows: 2})
			}
			ctrl.HandleMessage(designated, rep)
		}
		return n
	})
	return nil
}

func driveGrouping(r *driverRun) error {
	const groups = 6
	base := communityIntensity(groups, groupSize, r.seed)
	drifted := base.Clone()
	rng := rand.New(rand.NewPCG(r.seed, 0xd1))
	for i := 0; i < groups*groupSize*4; i++ {
		drifted.Add(model.SwitchID(1+rng.IntN(groups*groupSize)), model.SwitchID(1+rng.IntN(groups*groupSize)), 30+rng.Float64()*60)
	}
	var failed error
	var grp *grouping.Grouping
	newSGI := func() *grouping.SGI {
		sgi, err := grouping.New(grouping.Config{SizeLimit: groupSize, Seed: r.seed})
		if err != nil {
			failed = err
		}
		return sgi
	}
	r.unit("grouping.inigroup_ms", func() int {
		n := r.n(4)
		for i := 0; i < n && failed == nil; i++ {
			if grp, failed = newSGI().IniGroup(base); failed != nil {
				break
			}
		}
		return n
	})
	if failed != nil {
		return failed
	}
	r.unit("grouping.incupdate_ms", func() int {
		n := r.n(4)
		for i := 0; i < n && failed == nil; i++ {
			_, failed = newSGI().IncUpdate(grp.Clone(), drifted, nil)
		}
		return n
	})
	r.unit("grouping.intensity_add_ns", func() int {
		n := r.n(200_000)
		m := grouping.NewIntensity()
		for i := 0; i < n; i++ {
			m.Add(model.SwitchID(1+rng.IntN(300)), model.SwitchID(1+rng.IntN(300)), 1)
		}
		return n
	})
	whole := communityGraph(groups, groupSize, r.seed)
	pair := communityGraph(2, groupSize, r.seed)
	small := communityGraph(2, groupSize/2, r.seed)
	r.unit("graph.partition_kway_ms", func() int {
		n := r.n(4)
		for i := 0; i < n && failed == nil; i++ {
			_, failed = graph.PartitionKWay(whole, graph.PartitionOptions{K: groups, MaxPartWeight: groupSize + groupSize/5, Seed: r.seed})
		}
		return n
	})
	r.unit("graph.bisect_ms", func() int {
		n := r.n(20)
		for i := 0; i < n && failed == nil; i++ {
			_, _, failed = graph.Bisect(pair, graph.BisectOptions{MaxSideWeight: groupSize + groupSize/5, Seed: r.seed})
		}
		return n
	})
	r.unit("graph.mincut_ms", func() int {
		n := r.n(20)
		for i := 0; i < n && failed == nil; i++ {
			_, _, failed = graph.MinCut(small)
		}
		return n
	})
	return failed
}

// driverTraceScale sizes the trace and replay drivers: a real-like day of
// about 135 k flows (fewer in the short test pass).
const driverTraceScale = 2000

func driveTrace(r *driverRun) error {
	s, err := trace.NewStream(trace.RealLikeConfig(driverTraceScale*r.sz.driverDiv, r.seed))
	if err != nil {
		return err
	}
	info := s.Info()
	var buf []trace.Flow
	r.unit("trace.gen_ns_per_flow", func() int {
		flows := 0
		for w := 0; w < info.Windows; w++ {
			buf = s.GenWindow(w, buf[:0])
			flows += len(buf)
		}
		return flows
	})
	tr := trace.Materialize(s)
	r.unit("trace.intensity_ns_per_flow", func() int {
		trace.SwitchIntensity(tr, 0, tr.Duration)
		return tr.NumFlows()
	})
	agg, ok := s.(trace.AggStream)
	if !ok {
		return fmt.Errorf("trace driver: the generator stream has no aggregate form")
	}
	var cells []trace.PairAgg
	r.unit("trace.agg_ns_per_pair", func() int {
		pairs := 0
		for w := 0; w < info.Windows; w++ {
			cells = agg.AggWindow(w, cells[:0])
			pairs += len(cells)
		}
		return pairs
	})
	return nil
}

func driveReplay(r *driverRun) error {
	s, err := trace.NewStream(trace.RealLikeConfig(driverTraceScale*r.sz.driverDiv, r.seed))
	if err != nil {
		return err
	}
	info := s.Info()
	sgi, err := grouping.New(grouping.Config{SizeLimit: groupSize, Seed: r.seed})
	if err != nil {
		return err
	}
	view, err := sgi.IniGroup(trace.StreamIntensity(s, 0, time.Hour))
	if err != nil {
		return err
	}
	newFluid := func() *replay.Fluid {
		f := replay.NewFluid(replay.FluidConfig{Directory: info.Directory, Lazy: true, Horizon: info.Duration,
			BucketWidth: 2 * time.Hour, RuleIdleTimeout: time.Minute, GFIBWarm: 40 * time.Second, CLIBWarm: 2 * time.Second})
		f.NoteRegroup(0, view, 1)
		return f
	}
	windows := make([][]trace.Flow, info.Windows)
	cells := make([][]trace.PairAgg, info.Windows)
	agg, ok := s.(trace.AggStream)
	if !ok {
		return fmt.Errorf("replay driver: the generator stream has no aggregate form")
	}
	for w := range windows {
		windows[w] = s.GenWindow(w, nil)
		cells[w] = agg.AggWindow(w, nil)
	}
	r.unit("replay.fluid_fold_ns_per_flow", func() int {
		f := newFluid()
		for _, flows := range windows {
			f.FoldWindow(flows, view, 1)
		}
		return f.Population()
	})
	r.unit("replay.fluidagg_fold_ns_per_pair", func() int {
		f := newFluid()
		pairs := 0
		for w, c := range cells {
			from, to := info.WindowBounds(w)
			f.FoldAggWindow(c, from, to, view, 1)
			pairs += len(c)
		}
		return pairs
	})
	var kept int
	r.unit("replay.sampler_keep_ns", func() int {
		n := r.n(500_000)
		sampler := replay.NewPairSampler(0.02, r.seed)
		for i := 0; i < n; i++ {
			if sampler.Keep(model.HostID(i%6000+1), model.HostID(i%5003+7)) {
				kept++
			}
		}
		return n
	})
	return nil
}

func driveTelemetry(r *driverRun) error {
	r.unit("telemetry.span_ns", func() int {
		// A kept escalation: one root with two attributes and one child.
		n := r.n(50_000)
		var now time.Duration
		tr := telemetry.NewTracer(func() time.Duration { return now }, 1, r.seed)
		for i := 0; i < n; i += 2 {
			now += time.Microsecond
			root := tr.StartTrace("pktin").Attr("sw", int64(i)).Attr("reason", 1)
			child := tr.StartSpan(root.Context(), "pktin.ctrl")
			child.End()
			root.End()
		}
		return n
	})
	r.unit("telemetry.flight_record_ns", func() int {
		n := r.n(500_000)
		f := telemetry.NewFlight(telemetry.DefaultFlightDepth)
		for i := 0; i < n; i++ {
			f.Record(telemetry.FlightEvent{At: time.Duration(i), Peer: 2, Gen: 1, Ver: uint64(i), Type: uint8(openflow.TypeKeepAlive), Sent: i%2 == 0})
		}
		return n
	})
	reg := telemetry.NewRegistry()
	for i := 0; i < 40; i++ {
		v := float64(i)
		reg.Func(fmt.Sprintf("lazyctrl_driver_gauge_%02d", i), "driver gauge", func() float64 { return v })
	}
	r.unit("telemetry.registry_snapshot_us", func() int {
		n := r.n(5_000)
		for i := 0; i < n; i++ {
			reg.Snapshot()
		}
		return n
	})
	r.unit("metrics.record_latency_ns", func() int {
		n := r.n(500_000)
		rec := metrics.NewRecorder(24*time.Hour, 2*time.Hour)
		for i := 0; i < n; i++ {
			rec.RecordLatency(time.Duration(i)*100*time.Millisecond, 400*time.Microsecond, 3)
		}
		return n
	})
	return nil
}
