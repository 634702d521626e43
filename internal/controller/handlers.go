package controller

import (
	"slices"
	"sort"
	"time"

	"lazyctrl/internal/failover"
	"lazyctrl/internal/metrics"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
	"lazyctrl/internal/telemetry"
)

// HandleMessage implements netsim.Node. Nothing reaches a handler
// unadmitted (see admit).
func (c *Controller) HandleMessage(from model.SwitchID, msg netsim.Message) {
	if !c.admit(from, msg) {
		return
	}
	switch m := msg.(type) {
	case *openflow.PacketIn:
		c.handlePacketIn(m)
	case *openflow.PacketInBurst:
		// An edge switch's micro-batched intake window: handled item by
		// item, like the single PacketIns it stands for.
		pins := m.PacketIns()
		for i := range pins {
			c.handlePacketIn(&pins[i])
		}
	case *openflow.GFIBNack:
		c.handleGFIBNack(m)
	case *openflow.StateReport:
		c.handleStateReport(m)
	case *openflow.LFIBUpdate:
		c.handleLFIBAnswer(m)
	case *openflow.FailureReport:
		// Failure reports are control-plane housekeeping, not
		// traffic-driven workload.
		c.record(metrics.ReqKeepAlive, 1)
		c.stats.FailuresSeen++
		c.detector.Observe(m, c.env.Now())
		// Open evidence needs real check rounds to close its window.
		wakeTask(c.kaTask)
	case *openflow.KeepAlive:
		if c.cfg.Peer != 0 && m.From == c.cfg.Peer {
			// The other replica's heartbeat is replication traffic, not a
			// switch ack — it must not pollute the failure bookkeeping.
			c.handlePeerKeepAlive(m)
			return
		}
		c.proofOfLife(m.From)
	case *openflow.RoleAnnounce:
		c.adoptGeneration(m.Generation, m.From)
	case *openflow.StateSyncRecord:
		c.handleSyncRecord(from, m)
	case *openflow.ConfigAck:
		c.stats.ConfigAcks++
		c.proofOfLife(m.From)
		if rec := c.sw[m.From]; rec.push != nil && m.Version >= rec.push.version {
			c.endPush(m.From, "acked")
		}
		if c.awaitingRepush && !c.pushOutstanding() {
			c.awaitingRepush = false
			if tl := c.currentTakeover(); tl != nil && tl.RepushedAt == 0 {
				tl.RepushedAt = c.env.Now()
			}
		}
	}
}

// record accounts controller workload and feeds the queueing model's
// arrival-rate estimate.
func (c *Controller) record(class metrics.RequestClass, n uint64) {
	if n == 0 {
		n = 1
	}
	now := c.env.Now()
	if c.cfg.Recorder != nil {
		c.cfg.Recorder.CountRequest(class, now, n)
	}
	// Sliding 10-second rate window.
	const window = 10 * time.Second
	if now-c.reqWindowStart >= window {
		c.lastRate = float64(c.reqWindowCount) / (now - c.reqWindowStart).Seconds() * float64(c.cfg.LoadScale)
		c.reqWindowStart = now
		c.reqWindowCount = 0
	}
	c.reqWindowCount += n
}

// SetBackgroundLoad sets a floor on the estimated request rate used by
// the queueing model, representing control traffic outside the
// experiment's scope (e.g. the rest of a production data center during
// a cold-cache probe).
func (c *Controller) SetBackgroundLoad(rps float64) { c.backgroundRate = rps }

// queueDelay models the controller's load-dependent processing delay:
// an M/M/1-style wait at the estimated unscaled arrival rate, capped to
// keep pathological bursts bounded.
func (c *Controller) queueDelay() time.Duration {
	rate := c.lastRate
	if c.backgroundRate > rate {
		rate = c.backgroundRate
	}
	rho := rate / serviceRate
	if rho > 0.98 {
		rho = 0.98
	}
	if rho < 0 {
		rho = 0
	}
	wait := time.Duration(float64(serviceTime) * rho / (1 - rho))
	const maxWait = 100 * time.Millisecond
	if wait > maxWait {
		wait = maxWait
	}
	return serviceTime + wait
}

// handlePacketIn is the Ctrl-IF entry point for both modes: the
// read-only decide phase followed by the apply phase, which holds every
// write. The split is what ProcessBurst parallelizes; the sequential
// path runs the same two phases back to back so both paths share one
// semantics.
func (c *Controller) handlePacketIn(m *openflow.PacketIn) {
	d := c.decide(m)
	c.apply(m, d)
}

// decisionKind classifies the outcome of the decide phase.
type decisionKind uint8

const (
	// decideFlood floods an unknown destination (learning mode).
	decideFlood decisionKind = iota
	// decideInstall installs an Encap rule toward a known remote switch.
	decideInstall
	// decideBounce returns a packet whose endpoints share the ingress.
	decideBounce
	// decidePend queues the flow and relays a scoped ARP query (lazy).
	decidePend
)

// pinDecision is the outcome of deciding one PacketIn: what to do,
// where the destination was located for rule installation, and the
// location read before the source is learned, used for intensity
// accounting.
type pinDecision struct {
	kind decisionKind
	dst  model.SwitchID
	loc  model.SwitchID
}

// decide runs the read-only half of PacketIn handling: locate the
// destination and classify. It writes nothing, which is what lets
// ProcessBurst run it from many goroutines at once; the reads are of
// maps nothing writes while a burst is decided.
func (c *Controller) decide(m *openflow.PacketIn) pinDecision {
	if c.cfg.Mode == ModeLearning {
		// One read serves both intensity accounting (taken before the
		// source is learned) and forwarding (as if after): apply's learn
		// moves only the source's entry, so the answers differ only for
		// a host addressing itself, which is found on the ingress.
		loc, known := c.state.learned[m.Packet.DstMAC]
		dst := loc
		if m.Packet.DstMAC == m.Packet.SrcMAC {
			dst, known = m.Switch, true
		}
		switch {
		case known && dst != m.Switch:
			return pinDecision{kind: decideInstall, dst: dst, loc: loc}
		case known:
			return pinDecision{kind: decideBounce, loc: loc}
		default:
			return pinDecision{kind: decideFlood, loc: loc}
		}
	}
	loc, ok := c.clib.Locate(m.Packet.DstMAC)
	if ok && loc != m.Switch {
		return pinDecision{kind: decideInstall, dst: loc, loc: loc}
	}
	if !ok {
		loc = model.NoSwitch
	}
	return pinDecision{kind: decidePend, loc: loc}
}

// apply performs the ordered half of PacketIn handling: source learning,
// workload accounting, intensity estimation, and message emission.
// ProcessBurst calls it sequentially in input order, which is what
// keeps every table, the queueing model and the stats merged in a
// deterministic order regardless of the worker count.
func (c *Controller) apply(m *openflow.PacketIn, d pinDecision) {
	if c.cfg.Mode == ModeLearning {
		c.state.learned[m.Packet.SrcMAC] = m.Switch
	}
	c.record(metrics.ReqPacketIn, 1)
	c.stats.PacketIns++
	c.traceCtrl(m.Span, d.kind)

	// Intensity estimation: the controller observes the flows it must
	// handle itself, counted only where a regroup reads them.
	if c.regroups() && d.loc != model.NoSwitch && d.loc != m.Switch {
		c.intensity.Add(m.Switch, d.loc, 1)
	}

	switch d.kind {
	case decideInstall:
		c.installAndForward(m.Switch, d.dst, m.Packet, m.Span)
	case decideBounce:
		// Both endpoints local: bounce the packet back for delivery.
		c.forward(m.Switch, openflow.PacketOut{Actions: floodActions, Packet: m.Packet, Span: m.Span})
	case decideFlood:
		// Unknown destination: flood to all switches. Emitting one copy
		// per switch serializes on the controller CPU, which is the
		// passive-learning cost the paper's §V-E attributes OpenFlow's
		// 15 ms cold cache to: with hundreds of edge switches the average
		// copy leaves the controller half a fan-out later.
		c.stats.Floods++
		c.record(metrics.ReqFloodOut, uint64(len(c.cfg.Switches)))
		f := &flood{c: c, pkt: m.Packet, ingress: m.Switch}
		f.run = f.sendNext
		f.next = f.skip(0)
		base := c.queueDelay()
		copies := 0
		for i, sw := range c.cfg.Switches {
			if sw == m.Switch {
				continue
			}
			if c.floods == nil {
				netsim.Arm(c.env, base+time.Duration(i)*serviceTime, f.run)
			}
			copies++
		}
		if c.floods != nil && copies > 0 {
			f.series = c.floods.Start(base+time.Duration(f.next)*serviceTime, copies, f.run)
		}
	case decidePend:
		// Unknown (or local-only) destination: relay an ARP query to the
		// designated switches of every group hosting the packet's tenant
		// (VLAN).
		dst := m.Packet.DstMAC
		c.state.pending[dst] = append(c.state.pending[dst], pendingFlow{
			ingress: m.Switch,
			packet:  m.Packet,
			since:   c.env.Now(),
		})
		wakeTask(c.expireTask) // a pending flow needs expiry rounds
		c.relayARP(m.Packet)
	}
}

// flood is one learning-mode flood in flight: a single object whose
// pre-bound run sends one copy per firing, so a flood allocates O(1)
// objects however many switches it reaches. Copy i, to cfg.Switches[i],
// leaves at base + i·service (service > 0), and the ingress's slot
// stays empty, so the firings come at strictly increasing instants and
// the k-th sends the k-th copy: sendNext walks cfg.Switches, skipping
// the ingress. That walk is sound because nothing writes cfg.Switches
// after New. On the DES the firings are a series (netsim.Sequencer):
// apply queues the first, each queues the next after its Send, and
// their reserved places in the event order are those of the posts made
// up front elsewhere, so a flood holds one pending event, not one per
// switch. Every copy is &pkt: each receiver of a flooded packet (the
// edge's handleFlood and its OnDeliver hooks, the wire meter) only
// reads it.
type flood struct {
	c       *Controller
	pkt     model.Packet
	ingress model.SwitchID
	next    int32 // index in cfg.Switches of the next copy's target
	series  sim.Series
	run     func()
}

// skip returns the first index from i whose switch is not the ingress.
func (f *flood) skip(i int32) int32 {
	sw := f.c.cfg.Switches
	for int(i) < len(sw) && sw[i] == f.ingress {
		i++
	}
	return i
}

func (f *flood) sendNext() {
	sw, i := f.c.cfg.Switches, f.next
	f.c.env.Send(sw[i], &f.pkt)
	f.next = f.skip(i + 1)
	if f.c.floods != nil && int(f.next) < len(sw) {
		f.c.floods.Next(&f.series, time.Duration(f.next-i)*serviceTime, f.run)
	}
}

// relayARP fans an ARP query out to designated switches of the groups
// that contain hosts of the packet's VLAN.
func (c *Controller) relayARP(p model.Packet) {
	arp := &openflow.ARPRelay{
		Tenant: c.tenants[p.VLAN],
		Packet: model.Packet{
			SrcMAC:    p.SrcMAC,
			DstMAC:    model.BroadcastMAC,
			Ether:     model.EtherTypeARP,
			ARPOp:     model.ARPRequest,
			ARPTarget: p.DstIP,
			VLAN:      p.VLAN,
			Injected:  p.Injected,
		},
	}
	targets := c.designatedForVLAN(p.VLAN)
	if len(targets) == 0 {
		// No known placement yet: query every designated switch.
		targets = c.allDesignated()
	}
	c.stats.ARPRelays += uint64(len(targets))
	c.record(metrics.ReqARPRelay, uint64(len(targets)))
	netsim.Arm(c.env, c.queueDelay(), func() {
		for _, d := range targets {
			c.env.Send(d, arp)
		}
	})
}

// handleGFIBNack answers a resync request against controller-pushed
// preloads: the receiver could not apply a preload delta (its held
// version did not match the base), so it gets the current full filters
// for exactly the peers it named. admit takes a NACK only from its own
// origin; it is answered only for peers in the origin's current group:
// markPushed would otherwise record versions the switch never received
// (it ignores filters of non-members), and a later regroup that makes
// such a peer a member would skip its preload.
func (c *Controller) handleGFIBNack(m *openflow.GFIBNack) {
	c.record(metrics.ReqStateReport, 1)
	gid := c.grp.GroupOf(m.Origin)
	if gid == model.NoGroup {
		return
	}
	update := &openflow.GFIBUpdate{Group: m.Group, Version: c.groupingVersion, Generation: c.generation}
	for _, peer := range m.Peers {
		rec := c.sw[peer]
		if rec == nil || peer == m.Origin || c.grp.GroupOf(peer) != gid {
			continue
		}
		v, built := rec.filter.Version()
		if !built {
			continue
		}
		update.Filters = append(update.Filters, rec.filter.Full(peer))
		c.markPushed(m.Origin, peer, v)
	}
	if len(update.Filters) == 0 {
		return
	}
	c.stats.PreloadNacks += uint64(len(update.Filters))
	c.env.Send(m.Origin, update)
}

// designatedForVLAN returns the designated switches of groups hosting
// the VLAN, in ascending order: relayARP sends in this order, and each
// send draws jitter from the simulator's RNG.
func (c *Controller) designatedForVLAN(vlan model.VLAN) []model.SwitchID {
	groups := make(map[model.GroupID]bool)
	for _, sw := range c.clib.SwitchesWithVLAN(vlan) {
		if g := c.grp.GroupOf(sw); g != model.NoGroup {
			groups[g] = true
		}
	}
	out := make([]model.SwitchID, 0, len(groups))
	for g := range groups {
		out = append(out, c.chooseDesignated(c.grp.Members(g)))
	}
	slices.Sort(out)
	return out
}

func (c *Controller) allDesignated() []model.SwitchID {
	ids := c.grp.GroupIDs()
	out := make([]model.SwitchID, 0, len(ids))
	for _, g := range ids {
		out = append(out, c.chooseDesignated(c.grp.Members(g)))
	}
	return out
}

// floodActions is the action list of every bounced packet. Like a
// switch's encap list it is shared and never written.
var floodActions = []openflow.Action{openflow.Flood()}

// installAndForward installs, after the processing delay, the
// inter-group rule on the ingress switch and returns the buffered packet
// with the Encap action (extending OpenFlow v1.0, §IV-B). dst is a
// configured switch: locations are learned and reported only from
// those.
func (c *Controller) installAndForward(ingress, dst model.SwitchID, p model.Packet, span telemetry.SpanContext) {
	out := openflow.PacketOut{Actions: c.sw[dst].encap[:], Packet: p, Span: span}
	if c.cfg.PerFlowRules {
		// Per-flow baseline: forward the buffered packet without
		// installing a rule. A 5-tuple rule would never absorb another
		// escalation here — only distinct flows' first packets reach
		// the datapath — so the omitted install is exactly the
		// always-miss cache the per-flow baseline measures (see
		// Config.PerFlowRules).
		c.forward(ingress, out)
		return
	}
	in := c.installs.Next()
	*in = install{forwarding: forwarding{c: c, ingress: ingress, out: out}, mod: openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Match:       openflow.ExactDst(p.DstMAC, p.VLAN),
		Priority:    100,
		IdleTimeout: c.cfg.RuleIdleTimeout,
		Actions:     out.Actions,
		Span:        span,
	}}
	c.posts.Post(c.queueDelay(), in)
}

// forward sends out to ingress after the processing delay: a PacketOut
// with no rule, posted in one slot.
func (c *Controller) forward(ingress model.SwitchID, out openflow.PacketOut) {
	f := c.forwardings.Next()
	*f = forwarding{c: c, ingress: ingress, out: out}
	c.posts.Post(c.queueDelay(), f)
}

// sender is what the controller posts after its processing delay (see
// Controller.posts): a forwarding or an install, queued as a pointer to
// its slot so a post moves a word, not the messages.
type sender interface{ send() }

// forwarding is one PacketOut in flight (see forward).
type forwarding struct {
	c       *Controller
	ingress model.SwitchID
	out     openflow.PacketOut
}

func (f *forwarding) send() {
	f.c.stats.PacketOuts++
	f.c.env.Send(f.ingress, &f.out)
}

// install is a forwarding whose FlowMod installs the rule ahead of the
// packet: both messages travel in one slot.
type install struct {
	forwarding
	mod openflow.FlowMod
}

func (in *install) send() {
	in.c.stats.FlowModsSent++
	in.c.env.Send(in.ingress, &in.mod)
	in.forwarding.send()
}

// handleStateReport merges a designated switch's aggregated report:
// C-LIB maintenance plus intensity-matrix updates (the input to SGI).
// L-FIBs and pairs naming a switch without a record are skipped, so
// neither table grows past Config.Switches (see switchRecord).
func (c *Controller) handleStateReport(m *openflow.StateReport) {
	c.record(metrics.ReqStateReport, 1)
	c.stats.StateReports++
	for i := range m.LFIBs {
		u := &m.LFIBs[i]
		if c.sw[u.Origin] == nil {
			continue
		}
		group := c.grp.GroupOf(u.Origin)
		c.clib.ApplyLFIB(u.Origin, group, u)
		c.journalLFIB(u)
	}
	for _, pair := range m.Pairs {
		if !c.regroups() || c.sw[pair.A] == nil || c.sw[pair.B] == nil {
			continue
		}
		c.intensity.Add(pair.A, pair.B, float64(pair.NewFlows))
	}
	// A fresh post-takeover report from this group closes its slice of
	// the residue-rebuild window.
	if len(c.rebuildPending) > 0 && c.rebuildPending[m.Group] {
		delete(c.rebuildPending, m.Group)
		if len(c.rebuildPending) == 0 {
			if tl := c.currentTakeover(); tl != nil && tl.RebuiltAt == 0 {
				tl.RebuiltAt = c.env.Now()
			}
		}
	}
}

// handleLFIBAnswer resolves pending flows when a switch answers an ARP
// relay with a host binding. admit takes an answer only from its origin,
// a configured switch: one for another switch would place the host,
// journal the binding and install rules toward a switch that never
// claimed it.
func (c *Controller) handleLFIBAnswer(m *openflow.LFIBUpdate) {
	c.record(metrics.ReqPacketIn, 1)
	// A switch that is busy answering ARP relays is never falsely
	// suspected just because heartbeats queued behind the answers were
	// lost.
	c.proofOfLife(m.Origin)
	group := c.grp.GroupOf(m.Origin)
	c.clib.ApplyLFIB(m.Origin, group, m)
	c.journalLFIB(m)
	for _, e := range m.Entries {
		flows := c.state.takePending(e.MAC)
		for _, f := range flows {
			if m.Origin == f.ingress {
				continue // destination turned out local; switch handles it
			}
			// Lazy-mode resolutions are not traced end to end: the
			// ingress escalation's span ended at its micro-batch flush,
			// and the ARP round trip is not part of the PacketIn trace.
			c.installAndForward(f.ingress, m.Origin, f.packet, telemetry.SpanContext{})
		}
	}
}

// expirePending drops unresolved flows past the ARP timeout.
func (c *Controller) expirePending() {
	if n := c.state.expirePending(c.env.Now(), arpTimeout); n > 0 {
		c.stats.Unresolved += uint64(n)
	}
}

// maybeRegroup evaluates the §IV-B trigger: once regroupMinInterval has
// elapsed since the last effective update, attempt an incremental
// regrouping. Fig. 3's load thresholds inside IncUpdate decide whether
// any merge/split actually happens; only effective updates are counted
// and pushed. (The paper's second trigger — regroup early when workload
// grew 30 % — is not modelled: an attempt is already made at every check
// past the minimum interval.)
func (c *Controller) maybeRegroup() {
	if c.isStandby {
		return
	}
	now := c.env.Now()
	if now-c.lastRegroupAt < regroupMinInterval {
		return
	}
	if c.grp.NumGroups() == 0 {
		return
	}
	root := c.cfg.Tracer.StartTrace("regroup")
	mlkp := c.cfg.Tracer.StartSpan(root.Context(), "regroup.mlkp")
	ops, err := c.sgi.IncUpdate(c.grp, c.intensity, nil)
	mlkp.Attr("ops", int64(ops)).End()
	if err != nil || ops == 0 {
		// Ineffective trigger evaluations are traced too (with sent=0):
		// Fig. 3's thresholds declining to act is part of the regroup
		// story the timeline should show.
		root.Attr("sent", 0).End()
		return
	}
	c.groupingVersion++
	c.stats.Regroupings++
	c.lastRegroupAt = now
	c.journalGrouping()
	// Regroup workload scales with what the round actually ships: with
	// per-destination version tracking, switches whose group view and
	// peer filters are already current cost the controller nothing.
	c.regroupCtx = root.Context()
	sent := c.pushGroupConfigs(true)
	c.regroupCtx = telemetry.SpanContext{}
	root.Attr("sent", int64(sent)).End()
	c.record(metrics.ReqRegroup, uint64(sent))
	// Age the intensity estimate gently: fresh traffic shifts the
	// balance without discarding the accumulated signal (a hard reset
	// would leave SGI re-splitting on sampling noise).
	c.intensity.Decay(0.9)
	if c.cfg.Recorder != nil {
		c.cfg.Recorder.RecordUpdate(now)
	}
}

// deadProbeEvery is how many keep-alive rounds pass between probes of
// switches marked dead. A switch falsely diagnosed dead (correlated
// loss can silence both neighbor streams of a live switch) would
// otherwise never be heard from again — the controller stops probing
// it, so its acks stop, so it stays dead. The periodic probe bounds
// false-death recovery at ~deadProbeEvery×KeepAliveInterval plus one
// round trip; probing a genuinely dead switch costs one lost message.
const deadProbeEvery = 3

// sendKeepAlives probes every switch (the Controller→Sn stream of
// Table I); switches marked dead are probed at a reduced cadence (see
// deadProbeEvery). One KeepAlive serves the whole round, as the edge's
// serves both ring neighbours: every receiver only reads it. It is
// never reused across rounds, since the last round's may still be in
// flight.
func (c *Controller) sendKeepAlives() {
	if c.isStandby {
		return // standby runs no switch-facing duties
	}
	c.kaSeq++
	ka := &openflow.KeepAlive{From: c.addr, Seq: c.kaSeq, Generation: c.generation}
	for _, sw := range c.cfg.Switches {
		if c.sw[sw].dead && c.kaSeq%deadProbeEvery != 0 {
			continue
		}
		c.env.Send(sw, ka)
	}
	if c.cfg.Peer != 0 {
		// The master→standby heartbeat: the standby's takeover timer
		// rearms on each one, and the carried generation keeps a healed
		// stale replica fenced.
		c.env.Send(c.cfg.Peer, ka)
	}
}

// proofOfLife credits a message only a live switch could have sent (a
// keep-alive ack, a config ack, an ARP answer): its ack clock restarts,
// open evidence against it is dropped, and a dead mark is reversed — a
// false DiagSwitch, or one whose subject rebooted without a harness
// MarkRecovered, must not strand a live switch outside the control
// plane. What diagnosis evicted repopulates from the switch's own
// advertisements within the normal report rounds. Only admitted
// messages from configured switches reach it.
func (c *Controller) proofOfLife(sw model.SwitchID) {
	rec := c.sw[sw]
	rec.lastAck, rec.acked = c.env.Now(), true
	c.detector.Clear(sw)
	if rec.dead {
		c.stats.Resurrections++
		c.revive(sw, rec)
	}
}

// revive clears a switch's dead mark and re-pushes its group view cold
// — config and full peer preloads, to it alone — which restarts its
// push supervision. The reversal is journalled under the bumped
// grouping version, ahead of the assignment.
func (c *Controller) revive(sw model.SwitchID, rec *switchRecord) {
	rec.dead = false
	rec.lastAck, rec.acked = c.env.Now(), true
	c.groupingVersion++
	c.journalDead(sw, false)
	c.journalGrouping()
	c.forgetPushed(sw)
	c.pushGroupConfigs(false)
}

// checkFailures folds missing acks into the detector and acts on closed
// diagnoses (§III-E2/3).
func (c *Controller) checkFailures() {
	if c.isStandby {
		// A standby receives no acks; running the check would diagnose
		// the whole fabric dead.
		return
	}
	now := c.env.Now()
	deadline := 3 * c.cfg.KeepAliveInterval
	// Folded probe rounds were credited only while the underlay was
	// fault-free, so their acks are implicitly received through the
	// credited boundary; a switch that went silent under a fault is
	// still caught, because crediting stopped at the fault.
	var credited time.Duration
	if c.kaTask != nil {
		credited = c.kaTask.CreditedThrough()
	}
	for _, sw := range c.cfg.Switches {
		rec := c.sw[sw]
		if rec.dead {
			continue
		}
		if !rec.acked {
			rec.lastAck, rec.acked = now, true
			continue
		}
		last := rec.lastAck
		if credited > last {
			last = credited
		}
		if now-last >= deadline {
			c.stats.KeepAliveLost++
			c.detector.ObserveCtrlLoss(sw, now)
			// The control link to this switch is dropping messages, so
			// the per-destination push tracking can no longer assume
			// send == delivered.
			c.forgetPushed(sw)
		}
	}
	// Act in sorted switch order: recovery emits messages (evictions,
	// flow-mod reroutes), and acting in map-iteration order would make
	// the emission order — and so the whole downstream delivery
	// schedule — differ run to run.
	ready := c.detector.Ready(now)
	suspects := make([]model.SwitchID, 0, len(ready))
	for suspect := range ready {
		suspects = append(suspects, suspect)
	}
	sort.Slice(suspects, func(i, j int) bool { return suspects[i] < suspects[j] })
	for _, suspect := range suspects {
		c.actOnDiagnosis(suspect, ready[suspect])
	}
}

// actOnDiagnosis performs the control-plane side of recovery. The
// detector holds evidence only about configured switches: admit takes
// a FailureReport only for one, and the ack check walks Config.Switches.
func (c *Controller) actOnDiagnosis(suspect model.SwitchID, diag failover.Diagnosis) {
	rec := c.sw[suspect]
	switch diag {
	case failover.DiagSwitch:
		rec.dead = true
		c.journalDead(suspect, true)
		// A push retry for a dead destination would be wasted sends.
		c.endPush(suspect, "cancelled")
		// Evict the per-MAC state pointing at the dead switch: learned
		// locations would keep installing rules toward a black hole
		// (flows must fall back to flooding until the host reappears),
		// pending flows with a dead ingress can never be answered, and
		// C-LIB bindings on the dead switch would keep serving it as an
		// inter-group destination. Recovery repopulates all three from
		// PacketIns and state reports.
		le, pe := c.state.evictSwitch(suspect)
		c.stats.LearnedEvicted += uint64(le)
		c.stats.PendingEvicted += uint64(pe)
		c.clib.RemoveSwitch(suspect)
		// The dead switch's preload filter must not be re-shipped, and
		// destinations' acked versions for it are moot.
		rec.filter.Reset()
		for _, other := range c.sw {
			delete(other.pushedFilters, suspect)
		}
		// Broadcast the G-FIB tombstone to the dead switch's group:
		// ring neighbors already evicted on peer evidence, but
		// non-neighbor members would otherwise keep the filter — and
		// keep encapsulating first packets into a black hole — until
		// the next membership change.
		gid := c.grp.GroupOf(suspect)
		if gid != model.NoGroup {
			tomb := &openflow.GFIBDelta{
				Group:      gid,
				Removals:   []model.SwitchID{suspect},
				Version:    c.groupingVersion,
				Generation: c.generation,
			}
			for _, member := range c.grp.Members(gid) {
				if member == suspect || c.IsDead(member) {
					continue
				}
				c.stats.FilterRemovalsSent++
				c.env.Send(member, tomb)
			}
		}
		// If the failed switch was its group's designated switch, select
		// a replacement and re-push the group view (§III-E3).
		if gid != model.NoGroup && c.designatedIf(c.grp.Members(gid), suspect) == suspect {
			c.repush(true)
		}
	case failover.DiagPeerLinkUp, failover.DiagPeerLinkDown:
		// Only matters when a designated switch is an endpoint; the
		// conservative response is a config re-push selecting designated
		// switches afresh.
		if gid := c.grp.GroupOf(suspect); gid != model.NoGroup {
			c.repush(true)
		}
	case failover.DiagControlLink:
		// Nothing to act on: §III-E2's ring relay is not modelled, and
		// the switch falls back to degraded mode on its own.
	}
	if c.cfg.OnDiagnosis != nil {
		c.cfg.OnDiagnosis(suspect, diag)
	}
}

// MarkRecovered tells the controller a switch rebooted: the dead flag
// (if any) clears and the switch's group configuration is re-pushed to
// trigger resynchronization (§III-E3 step iii). The push must happen
// whether or not the failure was ever diagnosed — a transient failure
// healed before the keep-alive window closes still rebooted the
// switch, which came back with no group view and would otherwise stay
// configless forever (it answers keep-alives without one, so the
// lost-push invalidation never fires either).
func (c *Controller) MarkRecovered(sw model.SwitchID) {
	if rec := c.sw[sw]; rec != nil {
		c.revive(sw, rec)
	}
}
