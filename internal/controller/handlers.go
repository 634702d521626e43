package controller

import (
	"sort"
	"time"

	"lazyctrl/internal/failover"
	"lazyctrl/internal/metrics"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/telemetry"
)

// HandleMessage implements netsim.Node.
func (c *Controller) HandleMessage(from model.SwitchID, msg netsim.Message) {
	switch m := msg.(type) {
	case *openflow.PacketIn:
		c.handlePacketIn(m)
	case *openflow.PacketInBurst:
		// An edge switch's micro-batched intake window: decided in
		// input order, like the single PacketIns it stands for.
		c.burst(m.PacketIns(), 1)
	case *openflow.Batch:
		c.handleBatch(from, m)
	case *openflow.GFIBNack:
		c.handleGFIBNack(m)
	case *openflow.StateReport:
		c.handleStateReport(m)
	case *openflow.LFIBUpdate:
		c.handleLFIBAnswer(from, m)
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
		if rec := c.sw[m.From]; rec != nil && rec.push != nil && m.Version >= rec.push.version {
			c.endPush(m.From, "acked")
		}
		if c.awaitingRepush && !c.pushOutstanding() {
			c.awaitingRepush = false
			if tl := c.currentTakeover(); tl != nil && tl.RepushedAt == 0 {
				tl.RepushedAt = c.env.Now()
			}
		}
	case *openflow.EchoReply:
		// Liveness only.
	case *openflow.StatsReply:
		// Collected by tooling; nothing to do inline.
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
	service := time.Duration(float64(time.Second) / serviceRate)
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
	wait := time.Duration(float64(service) * rho / (1 - rho))
	const maxWait = 100 * time.Millisecond
	if wait > maxWait {
		wait = maxWait
	}
	return service + wait
}

// respond schedules fn after the controller's processing delay.
func (c *Controller) respond(fn func()) {
	c.env.After(c.queueDelay(), fn)
}

// handlePacketIn is the Ctrl-IF entry point for both modes: a
// shard-local decide phase followed by the ordered apply phase. The
// split is what ProcessBurst parallelizes; the sequential path runs the
// same two phases back to back so both paths share one semantics.
func (c *Controller) handlePacketIn(m *openflow.PacketIn) {
	d := c.decide(m)
	c.apply(m, d)
}

// handleBatch unpacks a coalesced message: its parts apply one by one,
// in order (PacketIns included — only ProcessBurst fans out).
func (c *Controller) handleBatch(from model.SwitchID, m *openflow.Batch) {
	for _, sub := range m.Msgs {
		if _, nested := sub.(*openflow.Batch); nested {
			continue // decode rejects nesting; ignore hand-built ones
		}
		c.HandleMessage(from, sub)
	}
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

// pinDecision is the shard-local outcome of one PacketIn: what to do,
// where the destination was located for rule installation, and the
// pre-learn location used for intensity accounting.
type pinDecision struct {
	kind decisionKind
	dst  model.SwitchID
	loc  model.SwitchID
}

// decide runs the shard-local half of PacketIn handling: learn the
// source (learning mode), locate the destination, classify. It takes at
// most two shard locks, never nested, and touches no unsharded state —
// which is what lets ProcessBurst run it from many goroutines at once.
func (c *Controller) decide(m *openflow.PacketIn) pinDecision {
	if c.cfg.Mode == ModeLearning {
		// The pre-learn read feeds intensity accounting (the sequential
		// path always estimated intensity before learning the source).
		loc0, _ := c.state.locate(m.Packet.DstMAC)
		c.state.learn(m.Packet.SrcMAC, m.Switch)
		dst, known := c.state.locate(m.Packet.DstMAC)
		switch {
		case known && dst != m.Switch:
			return pinDecision{kind: decideInstall, dst: dst, loc: loc0}
		case known:
			return pinDecision{kind: decideBounce, loc: loc0}
		default:
			return pinDecision{kind: decideFlood, loc: loc0}
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

// apply performs the ordered half of PacketIn handling: workload
// accounting, intensity estimation, and message emission. ProcessBurst
// calls it sequentially in input order, which is what keeps shared
// unsharded state (queueing model, intensity matrix, stats) merged in a
// deterministic order regardless of the shard count.
func (c *Controller) apply(m *openflow.PacketIn, d pinDecision) {
	c.record(metrics.ReqPacketIn, 1)
	c.stats.PacketIns++
	c.traceCtrl(m.Span, d.kind)

	// Intensity estimation: the controller observes the flows it must
	// handle itself.
	if d.loc != model.NoSwitch && d.loc != m.Switch {
		c.intensity.Add(m.Switch, d.loc, 1)
	}

	switch d.kind {
	case decideInstall:
		ingress, dst, pkt, span := m.Switch, d.dst, m.Packet, m.Span
		c.respond(func() { c.installAndForward(ingress, dst, pkt, span) })
	case decideBounce:
		// Both endpoints local: bounce the packet back for delivery.
		ingress, pkt, span := m.Switch, m.Packet, m.Span
		c.respond(func() {
			c.stats.PacketOuts++
			c.env.Send(ingress, &openflow.PacketOut{
				Actions: []openflow.Action{openflow.Flood()},
				Packet:  pkt,
				Span:    span,
			})
		})
	case decideFlood:
		// Unknown destination: flood to all switches. Emitting one copy
		// per switch serializes on the controller CPU, which is the
		// passive-learning cost the paper's §V-E attributes OpenFlow's
		// 15 ms cold cache to: with hundreds of edge switches the average
		// copy leaves the controller half a fan-out later.
		c.stats.Floods++
		c.record(metrics.ReqFloodOut, uint64(len(c.cfg.Switches)))
		pkt := m.Packet
		service := time.Duration(float64(time.Second) / serviceRate)
		base := c.queueDelay()
		for i, sw := range c.cfg.Switches {
			if sw == m.Switch {
				continue
			}
			sw := sw
			p := pkt
			c.env.After(base+time.Duration(i)*service, func() { c.env.Send(sw, &p) })
		}
	case decidePend:
		// Unknown (or local-only) destination: relay an ARP query to the
		// designated switches of every group hosting the packet's tenant
		// (VLAN).
		c.state.appendPending(m.Packet.DstMAC, pendingFlow{
			ingress: m.Switch,
			packet:  m.Packet,
			since:   c.env.Now(),
		})
		wakeTask(c.expireTask) // a pending flow needs expiry rounds
		c.relayARP(m.Packet)
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
	targets := c.designatedTargets(p.VLAN)
	c.stats.ARPRelays += uint64(len(targets))
	c.record(metrics.ReqARPRelay, uint64(len(targets)))
	c.respond(func() {
		for _, d := range targets {
			c.env.Send(d, arp)
		}
	})
}

// designatedTargets resolves the designated switches an ARP query for
// a VLAN fans out to. Inside a ProcessBurst apply phase the resolution
// is memoized per (VLAN, grouping version): a storm of unresolved
// flows on one tenant resolves the C-LIB placement scan and the
// per-group designated election once instead of per pending flow. The
// cache never outlives the burst — C-LIB placements may move between
// bursts — and is dropped if a regrouping bumps the version mid-burst.
func (c *Controller) designatedTargets(vlan model.VLAN) []model.SwitchID {
	if c.arpCacheOn {
		if c.arpCacheVer != c.groupingVersion {
			c.arpCacheVer = c.groupingVersion
			clear(c.arpCache)
		}
		if targets, ok := c.arpCache[vlan]; ok {
			return targets
		}
	}
	targets := c.designatedForVLAN(vlan)
	if len(targets) == 0 {
		// No known placement yet: query every designated switch.
		targets = c.allDesignated()
	}
	if c.arpCacheOn {
		c.arpCache[vlan] = targets
	}
	return targets
}

// handleGFIBNack answers a resync request against controller-pushed
// preloads: the receiver could not apply a preload delta (its held
// version did not match the base), so it gets the current full filters
// for exactly the peers it named.
func (c *Controller) handleGFIBNack(m *openflow.GFIBNack) {
	c.record(metrics.ReqStateReport, 1)
	if c.sw[m.Origin] == nil {
		return
	}
	update := &openflow.GFIBUpdate{Group: m.Group, Version: c.groupingVersion, Generation: c.generation}
	for _, peer := range m.Peers {
		rec := c.sw[peer]
		if rec == nil || rec.pfCur == nil {
			continue
		}
		cur := rec.pfCur
		update.Filters = append(update.Filters, openflow.GFIBFilter{Switch: peer, Filter: cur.data, Version: cur.f.Version()})
		c.markPushed(m.Origin, peer, cur.f.Version())
	}
	if len(update.Filters) == 0 {
		return
	}
	c.stats.PreloadNacks += uint64(len(update.Filters))
	c.env.Send(m.Origin, update)
}

// designatedForVLAN returns the designated switches of groups hosting
// the VLAN.
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

// installAndForward installs the inter-group rule on the ingress switch
// and returns the buffered packet with the Encap action (extending
// OpenFlow v1.0, §IV-B).
func (c *Controller) installAndForward(ingress, dst model.SwitchID, p model.Packet, span telemetry.SpanContext) {
	if c.cfg.PerFlowRules {
		// Per-flow baseline: forward the buffered packet without
		// installing a rule. A 5-tuple rule would never absorb another
		// escalation here — only distinct flows' first packets reach
		// the datapath — so the omitted install is exactly the
		// always-miss cache the per-flow baseline measures (see
		// Config.PerFlowRules).
		c.stats.PacketOuts++
		c.env.Send(ingress, &openflow.PacketOut{
			Actions: []openflow.Action{openflow.Encap(dst)},
			Packet:  p,
			Span:    span,
		})
		return
	}
	c.stats.FlowModsSent++
	c.stats.PacketOuts++
	c.env.Send(ingress, &openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Match:       openflow.ExactDst(p.DstMAC, p.VLAN),
		Priority:    100,
		IdleTimeout: c.cfg.RuleIdleTimeout,
		Actions:     []openflow.Action{openflow.Encap(dst)},
		Span:        span,
	})
	c.env.Send(ingress, &openflow.PacketOut{
		Actions: []openflow.Action{openflow.Encap(dst)},
		Packet:  p,
		Span:    span,
	})
}

// handleStateReport merges a designated switch's aggregated report:
// C-LIB maintenance plus intensity-matrix updates (the input to SGI).
func (c *Controller) handleStateReport(m *openflow.StateReport) {
	c.record(metrics.ReqStateReport, 1)
	c.stats.StateReports++
	for i := range m.LFIBs {
		u := &m.LFIBs[i]
		group := c.grp.GroupOf(u.Origin)
		c.clib.ApplyLFIB(u.Origin, group, u)
		c.journalLFIB(u)
	}
	for _, pair := range m.Pairs {
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
// relay with a host binding.
func (c *Controller) handleLFIBAnswer(from model.SwitchID, m *openflow.LFIBUpdate) {
	c.record(metrics.ReqPacketIn, 1)
	// A switch that is busy answering ARP relays is never falsely
	// suspected just because heartbeats queued behind the answers were
	// lost.
	c.proofOfLife(from)
	group := c.grp.GroupOf(m.Origin)
	c.clib.ApplyLFIB(m.Origin, group, m)
	c.journalLFIB(m)
	for _, e := range m.Entries {
		flows := c.state.takePending(e.MAC)
		for _, f := range flows {
			if m.Origin == f.ingress {
				continue // destination turned out local; switch handles it
			}
			f := f
			// Lazy-mode resolutions are not traced end to end: the
			// ingress escalation's span ended at its micro-batch flush,
			// and the ARP round trip is not part of the PacketIn trace.
			c.respond(func() { c.installAndForward(f.ingress, m.Origin, f.packet, telemetry.SpanContext{}) })
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
	if c.cfg.OnRegroup != nil {
		c.cfg.OnRegroup(c.groupingVersion, c.grp)
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
// deadProbeEvery).
func (c *Controller) sendKeepAlives() {
	if c.isStandby {
		return // standby runs no switch-facing duties
	}
	c.kaSeq++
	for _, sw := range c.cfg.Switches {
		if c.sw[sw].dead && c.kaSeq%deadProbeEvery != 0 {
			continue
		}
		c.env.Send(sw, &openflow.KeepAlive{From: c.addr, Seq: c.kaSeq, Generation: c.generation})
	}
	if c.cfg.Peer != 0 {
		// The master→standby heartbeat: the standby's takeover timer
		// rearms on each one, and the carried generation keeps a healed
		// stale replica fenced.
		c.env.Send(c.cfg.Peer, &openflow.KeepAlive{From: c.addr, Seq: c.kaSeq, Generation: c.generation})
	}
}

// proofOfLife credits a message only a live switch could have sent (a
// keep-alive ack, a config ack, an ARP answer): its ack clock restarts,
// open evidence against it is dropped, and a dead mark is reversed — a
// false DiagSwitch, or one whose subject rebooted without a harness
// MarkRecovered, must not strand a live switch outside the control
// plane. What diagnosis evicted repopulates from the switch's own
// advertisements within the normal report rounds.
func (c *Controller) proofOfLife(sw model.SwitchID) {
	rec := c.sw[sw]
	if rec == nil {
		return
	}
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

// actOnDiagnosis performs the control-plane side of recovery.
func (c *Controller) actOnDiagnosis(suspect model.SwitchID, diag failover.Diagnosis) {
	rec := c.sw[suspect]
	if rec == nil {
		return // evidence about a switch this controller does not control
	}
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
		rec.pfCur, rec.pfPrev = nil, nil
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
		// Relay via the ring predecessor is arranged by the harness.
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
