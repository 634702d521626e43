package edge

import (
	"slices"
	"time"

	"lazyctrl/internal/fib"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/telemetry"
)

// DeliverFunc is invoked when a packet reaches a locally attached host.
type DeliverFunc func(p *model.Packet, at time.Duration)

// Config parameterizes an edge switch.
type Config struct {
	ID model.SwitchID
	// AdvertiseInterval is the state-advertisement cadence (member →
	// designated). Zero selects 5 s.
	AdvertiseInterval time.Duration
	// ReportInterval is the designated switch's state-link cadence
	// (aggregated report to the controller). Zero selects 10 s.
	ReportInterval time.Duration
	// GFIBInterval is the designated switch's G-FIB dissemination
	// cadence within the group. Zero selects ReportInterval.
	GFIBInterval time.Duration
	// PacketInBatchMax enables the control-link micro-batching window
	// when > 1: PacketIns buffer at the switch and flush as one
	// PacketInBurst once the buffer reaches this count (or the window
	// deadline passes), so a packet-in storm crosses the control link
	// as a few bursts that feed the controller's sharded burst intake.
	// Zero or one ships every PacketIn immediately (the raw default;
	// the eval emulation harness turns batching on and accounts for
	// the window's latency explicitly — replay.ExpectedBatchDelay).
	PacketInBatchMax int
	// PacketInBatchWindow is the flush deadline of the micro-batching
	// window. Zero with batching enabled selects
	// DefaultPacketInBatchWindow.
	PacketInBatchWindow time.Duration
	// GFIBFullPush disables the word-level delta path of G-FIB
	// dissemination: every changed filter ships in full. It exists as
	// the measurement baseline for the delta protocol and as an escape
	// hatch; the delta path is on by default.
	GFIBFullPush bool
	// Fold, when set, enables analytic elision of quiescent periodic
	// rounds (keep-alives, idle advertisements, empty reports): runs of
	// provably no-op rounds collapse into one bulk event that credits
	// their aggregate effect in closed form (see fold.go). It supplies
	// the harness-side oracles the fold's quiet proofs need (global
	// fault gate, peer freshness, wire metering) and takes effect only
	// when the environment supports elision (netsim.ElidableScheduler).
	Fold *FoldHooks
	// TrackEscalations enables failover escalation bookkeeping (see
	// fencing.go): unanswered no-match PacketIns are remembered per
	// flow, duplicates inside the window are suppressed, and a master
	// change re-flushes the unexpired residue to the new master. Off by
	// default — the single-controller fast path allocates nothing.
	TrackEscalations bool
	// OnDeliver receives packets arriving at locally attached hosts.
	OnDeliver DeliverFunc
	// Tracer, when set, mints causal spans for controller escalations:
	// a no-match/ARP PacketIn opens a trace at ingress whose root span
	// covers the micro-batch residence, and the span context rides the
	// escalation to the controller and back (openflow PacketIn/FlowMod
	// Span fields), closing with the edge-side apply. Nil costs one
	// branch per escalation.
	Tracer *telemetry.Tracer
}

func (c Config) withDefaults() Config {
	if c.AdvertiseInterval == 0 {
		c.AdvertiseInterval = 5 * time.Second
	}
	if c.ReportInterval == 0 {
		c.ReportInterval = 10 * time.Second
	}
	if c.GFIBInterval == 0 {
		c.GFIBInterval = c.ReportInterval
	}
	if c.PacketInBatchMax > 1 && c.PacketInBatchWindow == 0 {
		c.PacketInBatchWindow = DefaultPacketInBatchWindow
	}
	return c
}

const (
	// slowPathDelay models the user-space slow path (ovs-vswitchd) of a
	// first packet, calibrated so §V-E's intra-group cold cache is ≈0.8 ms.
	slowPathDelay = 400 * time.Microsecond
	// keepAliveMisses silent intervals report a wheel neighbor lost
	// (§III-E1) and, from the controller, start degraded mode.
	keepAliveMisses = 3
	// DefaultPacketInBatchWindow is the micro-batching flush deadline
	// every emulation runs with; eval models its latency from it.
	DefaultPacketInBatchWindow = time.Millisecond
)

// Stats are the switch's datapath counters (exported via StatsReply).
type Stats struct {
	PacketsSeen        uint64
	BytesSeen          uint64
	Delivered          uint64
	EncapSent          uint64
	GFIBMulticopies    uint64
	FalsePositiveDrops uint64
	PacketIns          uint64
	FloodDrops         uint64
	// PacketInBursts counts PacketInBurst messages flushed by the
	// micro-batching window (each replaces ≥2 PacketIn messages).
	PacketInBursts uint64
	// PinBatchWait totals the time PacketIns spent buffered in the
	// micro-batching window before their flush, and PinBatchWaited
	// counts them: the measured ground truth the modeled batching-delay
	// term (replay.ExpectedBatchDelay) is pinned against.
	PinBatchWait   time.Duration
	PinBatchWaited uint64
	// GFIBDeltasSent and GFIBFullsSent count per-peer filter items a
	// designated switch disseminated as word deltas vs. full filters.
	GFIBDeltasSent uint64
	GFIBFullsSent  uint64
	// GFIBDeltasApplied counts delta items this switch patched into
	// its G-FIB; GFIBNacksSent counts resync requests after a base-
	// version mismatch; GFIBResyncs counts full filters re-sent by a
	// designated switch in answer to a NACK.
	GFIBDeltasApplied uint64
	GFIBNacksSent     uint64
	GFIBResyncs       uint64
	// PeerFiltersEvicted counts G-FIB filters invalidated on peer
	// evidence: the switch reported a ring neighbor lost and dropped
	// its preloaded filter without waiting for the controller's
	// diagnosis.
	PeerFiltersEvicted uint64
	// GFIBRemovalsSent counts filter tombstones a designated switch
	// broadcast after evicting a member on peer evidence;
	// GFIBRemovalsApplied counts tombstones this switch applied
	// (filters dropped on a wire removal).
	GFIBRemovalsSent    uint64
	GFIBRemovalsApplied uint64
	// DegradedFloods counts first packets flood-forwarded to the whole
	// group instead of escalating, because the controller had gone
	// silent (graceful degradation); DegradedWindow totals the time
	// spent in that mode. While degraded the switch keeps serving
	// stale G-FIB and flow-table state — only the no-match slow path
	// changes behavior.
	DegradedFloods uint64
	DegradedWindow time.Duration
	// IdleRefreshes counts version beacons sent by the idle
	// anti-entropy path (nothing changed locally for
	// refreshEveryRounds advertise intervals): a zero-entry
	// advertisement asserting the current L-FIB version, the repair
	// trigger for a bootstrap advertisement lost on a faulty peer link
	// — the designated switch resyncs the member on version mismatch,
	// which would otherwise strand the member's state forever (a
	// member only re-advertises on change).
	IdleRefreshes uint64
	// StaleGenRejected counts controller-issued messages rejected by
	// the generation fence (a demoted master pushing under a superseded
	// generation); DupEscalationsSuppressed counts no-match escalations
	// suppressed because the same flow was already pending;
	// EscalationsReflushed counts pending escalations re-sent to a
	// newly announced master (see fencing.go).
	StaleGenRejected         uint64
	DupEscalationsSuppressed uint64
	EscalationsReflushed     uint64
}

// Switch is a LazyCtrl edge switch.
type Switch struct {
	cfg Config
	env netsim.Env

	lfib  *fib.LFIB
	gfib  *fib.GFIB
	flows *flowTable
	// candidates is the G-FIB lookup scratch of the slow path: valid
	// only until the next lookup, so nothing deferred may hold it.
	candidates []model.SwitchID

	group     openflow.GroupConfig
	haveGroup bool

	// role is the designated-switch state, nil unless this switch is
	// its group's designated switch (see role.go).
	role *designatedRole
	// gfibRound/ctrlRound count dissemination/report rounds. On the
	// controller-report path every refreshEveryRounds-th round ignores
	// the sent-version gate (anti-entropy); on the dissemination path
	// the same cadence sends only a version beacon — stale receivers
	// NACK and get exactly the filters they miss re-sent in full.
	// Lifetime counters, not role state: nothing ever resets them, and
	// every pinned run depends on the cadence phase they fix.
	gfibRound uint64
	ctrlRound uint64

	// Micro-batching intake window on the control link: buffered
	// PacketIns (with their buffering instants, for the batching-delay
	// accounting) and the pending flush deadline. pinSpans holds the
	// open root spans of the sampled escalations in the window (ended
	// at flush, so the root span duration is the batch residence);
	// unsampled escalations append nothing.
	pinBuf         []openflow.BurstPacket
	pinAt          []time.Duration
	pinSpans       []*telemetry.Span
	pinFlushCancel func()

	// Own per-window pair stats: new flows observed from remote
	// switches (counted at decap of first packets).
	pairFlows map[model.SwitchID]uint32

	// adv is the member-side advertisement bookkeeping (role.go).
	adv advertState

	// Degraded-mode state: ctrlLastKA is the arrival time of the last
	// controller keep-alive (valid once ctrlKASeen); when the controller
	// has been silent past the keep-alive deadline, no-match first
	// packets flood to the group instead of escalating (degraded), with
	// degradedAt marking the window start.
	ctrlLastKA time.Duration
	ctrlKASeen bool
	degraded   bool
	degradedAt time.Duration

	// Replicated-controller state (fencing.go): master is the
	// controller address this switch follows (the target of
	// escalations, reports, and acks), ctrlGen the highest cluster
	// generation it has observed — pushes fenced behind it are
	// rejected. escPending holds the unanswered no-match escalations
	// for the failover dedup/re-flush path (nil unless
	// TrackEscalations).
	master     model.SwitchID
	ctrlGen    uint64
	escPending map[escKey]escRecord

	// Keep-alive bookkeeping: ring holds an entry per wheel neighbor
	// heard or checked since the ring last changed, at most two.
	kaSeq     uint64
	ring      map[model.SwitchID]ringNeighbor
	ctrlRelay bool // control link down: relay via ring predecessor
	cancels   []func()
	started   bool
	stats     Stats

	// Control-fold task handles (nil without Config.Fold): wake hooks
	// re-materialize the timers whose quiet proof a state change
	// invalidates. The designated duties' handles live in the role.
	advTask     netsim.ElidableTask
	kaSendTask  netsim.ElidableTask
	kaCheckTask netsim.ElidableTask
}

// New constructs a switch bound to its environment. Call Start to begin
// periodic duties.
func New(cfg Config, env netsim.Env) *Switch {
	c := cfg.withDefaults()
	return &Switch{
		cfg:       c,
		env:       env,
		master:    model.ControllerNode,
		lfib:      fib.NewLFIB(),
		gfib:      fib.NewGFIB(),
		flows:     newFlowTable(),
		pairFlows: make(map[model.SwitchID]uint32),
		ring:      newRing(),
	}
}

// NodeID implements netsim.Node.
func (s *Switch) NodeID() model.SwitchID { return s.cfg.ID }

// LFIB exposes the local FIB (read-only use).
func (s *Switch) LFIB() *fib.LFIB { return s.lfib }

// GFIB exposes the group FIB (read-only use).
func (s *Switch) GFIB() *fib.GFIB { return s.gfib }

// Stats returns a snapshot of the datapath counters. An open degraded
// window is folded into the snapshot's DegradedWindow.
func (s *Switch) Stats() Stats {
	st := s.stats
	if s.degraded {
		st.DegradedWindow += s.env.Now() - s.degradedAt
	}
	return st
}

// FlowCount returns the number of installed flow rules.
func (s *Switch) FlowCount() int { return s.flows.len() }

// Group returns the current group configuration.
func (s *Switch) Group() openflow.GroupConfig { return s.group }

// IsDesignated reports whether this switch is its group's designated
// switch.
func (s *Switch) IsDesignated() bool { return s.role != nil }

// AttachHost seeds the L-FIB with a locally attached VM (the hypervisor
// knows its virtual interfaces).
func (s *Switch) AttachHost(mac model.MAC, ip model.IP, vlan model.VLAN) {
	v := s.lfib.Version()
	s.lfib.Learn(mac, ip, vlan, 1, s.env.Now())
	if s.lfib.Version() != v {
		s.noteLFIBChanged()
	}
}

// DetachHost removes a local VM (migration away or removal).
func (s *Switch) DetachHost(mac model.MAC) {
	v := s.lfib.Version()
	s.lfib.Remove(mac)
	if s.lfib.Version() != v {
		s.noteLFIBChanged()
	}
}

// Start begins periodic slow-path duties (advertisement; keep-alives and
// reporting start when a group is configured).
func (s *Switch) Start() {
	if s.started {
		return
	}
	s.started = true
	s.advTask = s.registerPeriodic(s.cfg.AdvertiseInterval, s.advertise,
		s.advertiseQuiet, s.advertiseCredit)
}

// registerPeriodic wires one periodic duty, elidable when the control
// fold is enabled; the task's cancel joins the group-timer teardown
// either way (ElidableTask.Stop settles pending folds first).
func (s *Switch) registerPeriodic(interval time.Duration, run func(), quiet func() int, credit func(int)) netsim.ElidableTask {
	if s.cfg.Fold == nil {
		s.cancels = append(s.cancels, s.env.Every(interval, run))
		return nil
	}
	t := netsim.EveryElidableOrReal(s.env, interval, run, quiet, credit)
	s.cancels = append(s.cancels, t.Stop)
	return t
}

// Stop cancels all periodic work and flushes any PacketIns still held
// in the micro-batching window. Elidable tasks settle their pending
// folds before state teardown (their Stop credits passed rounds).
func (s *Switch) Stop() {
	s.flushPacketIns()
	s.cancelTimers()
	s.started = false
}

// cancelTimers stops every periodic duty and drops the fold handles.
func (s *Switch) cancelTimers() {
	for _, c := range s.cancels {
		c()
	}
	s.cancels = s.cancels[:0]
	s.advTask, s.kaSendTask, s.kaCheckTask = nil, nil, nil
	if s.role != nil {
		s.role.dissemTask, s.role.reportTask = nil, nil
	}
}

// Reboot simulates a switch restart: every volatile table — L-FIB
// bindings, G-FIB filters, flow rules, group view, aggregation and
// delta-tracking state, keep-alive bookkeeping — is lost, and the
// L-FIB's incarnation epoch advances (its one durable datum), so the
// versions the switch advertises after the reboot dominate everything
// it advertised before. Receivers therefore accept its post-reboot
// snapshots immediately and its advertisement stream stays
// delta-encodable; without the epoch a version counter restarted at
// zero would be refused as stale until it caught up. The harness must
// re-attach the switch's hosts (the hypervisor knows its virtual
// interfaces) and the controller re-pushes the group view via
// MarkRecovered.
func (s *Switch) Reboot() {
	wasStarted := s.started
	// The micro-batching window's buffered PacketIns die with the
	// switch — drop them before Stop, whose drain would otherwise
	// flush pre-failure escalations to the controller. Their open
	// spans die too (never ended, never dumped).
	s.pinBuf, s.pinAt, s.pinSpans = nil, nil, nil
	s.Stop()
	s.lfib.Restart()
	s.gfib.Clear()
	s.flows = newFlowTable()
	s.group = openflow.GroupConfig{}
	s.haveGroup = false
	s.role = nil
	s.ring = newRing()
	s.adv = advertState{}
	clear(s.pairFlows)
	s.ctrlRelay = false
	// A crash ends any degraded window (the switch is down, not
	// degraded); the accumulated counters survive the reboot.
	if s.degraded {
		s.stats.DegradedWindow += s.env.Now() - s.degradedAt
		s.degraded = false
	}
	s.ctrlKASeen = false
	// The replicated-controller view is volatile too: a rebooted switch
	// re-learns the master and generation from the first stamped push
	// it hears (MarkRecovered's re-push carries both), and its pending
	// escalations died with the crash.
	s.master = model.ControllerNode
	s.ctrlGen = 0
	s.escPending = nil
	if wasStarted {
		s.Start()
	}
}

// InjectLocal processes a packet transmitted by a locally attached host
// (the "local plain packet" branch of Fig. 5).
func (s *Switch) InjectLocal(p *model.Packet) {
	now := s.env.Now()
	if p.Injected == 0 {
		p.Injected = now
	}
	s.stats.PacketsSeen++
	s.stats.BytesSeen += uint64(p.Bytes)

	// The switch learns the source address from any local transmission.
	v := s.lfib.Version()
	s.lfib.Learn(p.SrcMAC, p.SrcIP, p.VLAN, 1, now)
	if s.lfib.Version() != v {
		s.noteLFIBChanged()
	}

	// 1. Flow table.
	if rule := s.flows.lookup(p, now); rule != nil {
		s.applyActions(rule.actions, p)
		return
	}
	// 2. L-FIB: destination attached locally.
	if e := s.lfib.Lookup(p.DstMAC); e != nil {
		s.deliver(p)
		return
	}
	// 3. G-FIB: candidate peers in the group (may include false
	// positives; all candidates get a copy).
	s.candidates = s.gfib.AppendQuery(s.candidates[:0], p.DstMAC)
	switch len(s.candidates) {
	case 0:
	case 1:
		// The encap runs slowPathDelay from now and another first packet
		// may reuse the scratch before then: capture the target by value.
		target := s.candidates[0]
		s.env.After(slowPathDelay, func() { s.encapTo(target, p) })
		return
	default:
		targets := slices.Clone(s.candidates)
		s.stats.GFIBMulticopies += uint64(len(targets) - 1)
		s.env.After(slowPathDelay, func() {
			for _, t := range targets {
				s.encapTo(t, p)
			}
		})
		return
	}
	// 4. Controller.
	s.packetIn(openflow.ReasonNoMatch, p)
}

// handleOverlay processes an encapsulated packet arriving from the
// core (the second branch of Fig. 5).
func (s *Switch) handleOverlay(p *model.Packet) {
	s.stats.PacketsSeen++
	s.stats.BytesSeen += uint64(p.Bytes)
	src := model.NoSwitch
	if p.Encap != nil {
		src = p.Encap.SrcSwitch
	}
	// Decapsulate.
	inner := *p
	inner.Bytes -= model.EncapOverheadBytes
	inner.Encap = nil

	e := s.lfib.Lookup(inner.DstMAC)
	if e == nil {
		// Mis-forwarded due to a Bloom-filter false positive: drop.
		s.stats.FalsePositiveDrops++
		return
	}
	if inner.FlowSeq == 0 && src != model.NoSwitch {
		s.pairFlows[src]++
		wakeTask(s.advTask) // pair statistics now pending
	}
	s.deliver(&inner)
}

// handleFlood processes a plain packet flooded by the baseline
// controller: deliver if the destination is local, silently drop
// otherwise.
func (s *Switch) handleFlood(p *model.Packet) {
	if s.lfib.Lookup(p.DstMAC) != nil {
		s.deliver(p)
		return
	}
	s.stats.FloodDrops++
}

func (s *Switch) deliver(p *model.Packet) {
	s.stats.Delivered++
	if s.cfg.OnDeliver != nil {
		s.cfg.OnDeliver(p, s.env.Now())
	}
}

// encapTo wraps p with the GRE-like outer header and sends it to a
// remote edge switch over the underlay.
func (s *Switch) encapTo(remote model.SwitchID, p *model.Packet) {
	out := *p
	out.Encap = &model.EncapHeader{SrcSwitch: s.cfg.ID, DstSwitch: remote}
	out.Bytes += model.EncapOverheadBytes
	s.stats.EncapSent++
	s.env.Send(remote, &out)
}

// packetIn forwards a packet to the controller over the control link
// (relayed via the ring predecessor while the control link is down,
// §III-E2). With the micro-batching window enabled the packet buffers
// at the switch and flushes as part of a PacketInBurst once the count
// threshold or the window deadline is hit, so a storm arrives at the
// controller as bursts instead of a message per flow.
func (s *Switch) packetIn(reason openflow.PacketInReason, p *model.Packet) {
	if reason == openflow.ReasonNoMatch && s.degradeFlood(p) {
		return
	}
	if reason == openflow.ReasonNoMatch && s.cfg.TrackEscalations && s.noteEscalation(p) {
		return
	}
	s.stats.PacketIns++
	root := s.cfg.Tracer.StartTrace("pktin").
		Attr("sw", int64(s.cfg.ID)).Attr("reason", int64(reason))
	if s.cfg.PacketInBatchMax <= 1 {
		root.End() // no batch residence: the root closes at ingress
		s.sendCtrl(&openflow.PacketIn{Switch: s.cfg.ID, Reason: reason, Packet: *p, Span: root.Context()})
		return
	}
	s.pinBuf = append(s.pinBuf, openflow.BurstPacket{Reason: reason, Packet: *p, Span: root.Context()})
	s.pinAt = append(s.pinAt, s.env.Now())
	if root != nil {
		s.pinSpans = append(s.pinSpans, root)
	}
	if len(s.pinBuf) >= s.cfg.PacketInBatchMax {
		s.flushPacketIns()
		return
	}
	if s.pinFlushCancel == nil {
		s.pinFlushCancel = s.env.After(s.cfg.PacketInBatchWindow, s.flushPacketIns)
	}
}

// flushPacketIns drains the micro-batching window: a single buffered
// packet ships as a plain PacketIn, several ship as one PacketInBurst.
func (s *Switch) flushPacketIns() {
	if s.pinFlushCancel != nil {
		s.pinFlushCancel()
		s.pinFlushCancel = nil
	}
	if len(s.pinBuf) == 0 {
		return
	}
	buf, at, spans := s.pinBuf, s.pinAt, s.pinSpans
	s.pinBuf, s.pinAt, s.pinSpans = nil, nil, nil
	now := s.env.Now()
	for _, t := range at {
		s.stats.PinBatchWait += now - t
	}
	s.stats.PinBatchWaited += uint64(len(at))
	// Sampled escalations close their root here: the root span's
	// duration is exactly the micro-batch residence.
	for _, sp := range spans {
		sp.End()
	}
	if len(buf) == 1 {
		s.sendCtrl(&openflow.PacketIn{Switch: s.cfg.ID, Reason: buf[0].Reason, Packet: buf[0].Packet, Span: buf[0].Span})
		return
	}
	s.stats.PacketInBursts++
	s.sendCtrl(&openflow.PacketInBurst{Switch: s.cfg.ID, Items: buf})
}

// controllerSilent reports whether the controller has missed its
// keep-alive deadline. It never triggers before the first controller
// keep-alive has been seen: a switch that was configured but never
// heard the controller heartbeat (rig harnesses, pre-blackout boot)
// has no baseline to measure silence against.
func (s *Switch) controllerSilent() bool {
	if !s.haveGroup || s.group.KeepAliveInterval <= 0 || !s.ctrlKASeen {
		return false
	}
	deadline := keepAliveMisses * s.group.KeepAliveInterval
	last := s.ctrlLastKA
	// Folded controller heartbeat rounds were credited only while the
	// underlay was fault-free, so the broadcast is implicitly heard
	// through the credited boundary.
	if h := s.cfg.Fold; h != nil && h.CtrlKACreditedThrough != nil {
		if ct := h.CtrlKACreditedThrough(); ct > last {
			last = ct
		}
	}
	return s.env.Now()-last >= deadline
}

// degradeFlood is the graceful-degradation path for no-match first
// packets while the controller is silent: instead of escalating into a
// black hole, the packet floods to every group member — the G-FIB's
// flood fallback — so intra-group traffic toward hosts the (stale)
// G-FIB misses keeps flowing. Inter-group destinations stay
// unreachable until the controller returns; receivers without the
// destination count the copy as a false-positive drop. Reports whether
// the packet was handled.
func (s *Switch) degradeFlood(p *model.Packet) bool {
	if !s.controllerSilent() || len(s.group.Members) <= 1 {
		return false
	}
	if !s.degraded {
		s.degraded = true
		s.degradedAt = s.env.Now()
	}
	s.stats.DegradedFloods++
	for _, m := range s.group.Members {
		if m != s.cfg.ID {
			s.encapTo(m, p)
		}
	}
	return true
}

// exitDegraded closes an open degraded window (the controller spoke).
func (s *Switch) exitDegraded() {
	if !s.degraded {
		return
	}
	s.stats.DegradedWindow += s.env.Now() - s.degradedAt
	s.degraded = false
}

func (s *Switch) sendCtrl(msg netsim.Message) {
	if s.ctrlRelay && s.haveGroup {
		prev := s.group.RingPrev
		if prev != model.NoSwitch && prev != s.cfg.ID {
			s.env.Send(prev, &relayEnvelope{Origin: s.cfg.ID, Msg: msg})
			return
		}
	}
	s.env.Send(s.master, msg)
}

// relayEnvelope carries a control message via a ring neighbor while the
// origin's control link is down (§III-E2). It is not an openflow
// message and has no wire encoding: the in-memory underlays hand it
// over as a Go value, and the wire meter does not count it.
type relayEnvelope struct {
	Origin model.SwitchID
	Msg    netsim.Message
}

// SetControlRelay switches control-channel traffic onto the ring
// predecessor (true) or back to the direct control link (false).
func (s *Switch) SetControlRelay(on bool) { s.ctrlRelay = on }

func (s *Switch) applyActions(actions []openflow.Action, p *model.Packet) {
	for _, a := range actions {
		switch a.Type {
		case openflow.ActionTypeOutput:
			s.deliver(p)
		case openflow.ActionTypeEncap:
			s.encapTo(a.Remote, p)
		case openflow.ActionTypeController:
			s.packetIn(openflow.ReasonNoMatch, p)
		case openflow.ActionTypeFlood:
			s.handleFlood(p)
		case openflow.ActionTypeDrop:
			return
		}
	}
}
