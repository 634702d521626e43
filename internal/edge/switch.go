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
// p is valid only during the call: it is the switch's scratch copy of
// the delivered packet, so a hook that keeps a packet copies it.
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
	// as a few bursts instead of one message per PacketIn.
	// Zero or one ships every PacketIn immediately (the raw default;
	// the eval emulation harness turns batching on and accounts for
	// the window's latency explicitly — replay.ExpectedBatchDelay).
	PacketInBatchMax int
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
	// on the DES, where every periodic duty is a sim.Elider (see
	// netsim.EveryElidableOrReal).
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
	return c
}

const (
	// slowPathDelay models the user-space slow path (ovs-vswitchd) of a
	// first packet, calibrated so §V-E's intra-group cold cache is ≈0.8 ms.
	slowPathDelay = 400 * time.Microsecond
	// keepAliveMisses silent intervals report a wheel neighbor lost
	// (§III-E1) and, from the controller, start degraded mode.
	keepAliveMisses = 3
	// DefaultPacketInBatchWindow is the micro-batching flush deadline:
	// no buffered PacketIn waits longer. eval models its latency from it.
	DefaultPacketInBatchWindow = time.Millisecond
)

// Stats are the switch's datapath counters.
type Stats struct {
	PacketsSeen        uint64
	Delivered          uint64
	EncapSent          uint64
	FalsePositiveDrops uint64
	PacketIns          uint64
	// PacketInBursts counts PacketInBurst messages flushed by the
	// micro-batching window (each replaces ≥2 PacketIn messages).
	PacketInBursts uint64
	// PinBatchWait totals the time PacketIns spent buffered in the
	// micro-batching window before their flush, and PinBatchWaited
	// counts them: the measured ground truth the modeled batching-delay
	// term (replay.ExpectedBatchDelay) is pinned against.
	PinBatchWait   time.Duration
	PinBatchWaited uint64
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
	// slow holds the first packets waiting out slowPathDelay, and
	// moreTargets the extra G-FIB candidates of those that have several
	// (each list written once); both are made at first use.
	slow        *netsim.Deferred[slowItem]
	moreTargets *netsim.Block[[]model.SwitchID]
	// lent is the copy of a packet deliver hands OnDeliver (see
	// DeliverFunc).
	lent model.Packet

	group     openflow.GroupConfig
	haveGroup bool

	// role is the designated-switch state, nil unless this switch is
	// its group's designated switch (see role.go).
	role *designatedRole
	// gfibRound/ctrlRound count dissemination/report rounds. On the
	// controller-report path every refreshEveryRounds-th round ignores
	// the reported-version gate (anti-entropy); on the dissemination
	// path the same cadence adds a version beacon — stale receivers
	// NACK and get exactly the filters they miss re-sent in full.
	// Lifetime counters, not role state: nothing ever resets them, and
	// every pinned run depends on the cadence phase they fix.
	gfibRound uint64
	ctrlRound uint64

	// Micro-batching intake window on the control link: buffered
	// PacketIns (with their buffering instants, for the batching-delay
	// accounting) and the timer of the pending flush deadline. pinSpans
	// holds the open root spans of the sampled escalations in the window
	// (ended at flush, so the root span duration is the batch residence);
	// unsampled escalations append nothing. flushFn is flushPacketIns,
	// bound at the first arm so re-arming builds no method value, and a
	// switch that never escalates (most of a quiescent fabric) never
	// binds it.
	pinBuf   []openflow.BurstPacket
	pinAt    []time.Duration
	pinSpans []*telemetry.Span
	pinFlush netsim.Timer
	flushFn  func()

	// Own per-window pair stats: new flows observed from remote
	// switches (counted at decap of first packets).
	pairFlows map[model.SwitchID]uint32

	// adv is the member-side advertisement bookkeeping (role.go), and
	// beacon the idle beacon last sent (see idleBeacon).
	adv    advertState
	beacon *openflow.StateReport

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
	kaSeq uint64
	ring  map[model.SwitchID]ringNeighbor
	// cancels holds every registered periodic duty: those of a role
	// that handleGroupConfig dropped or replaced are reachable only here.
	cancels []netsim.ElidableTask
	started bool
	stats   Stats

	// The storage of the messages the switch builds per flow, per
	// advertisement and per heartbeat (see netsim.BlockFor).
	encaps     *netsim.Block[encapped]
	reports    *netsim.Block[openflow.StateReport]
	legs       *netsim.Block[openflow.LFIBUpdate]
	pairStats  *netsim.Block[openflow.PairStat]
	packetIns  *netsim.Block[openflow.PacketIn]
	heartbeats *netsim.Block[openflow.KeepAlive]

	// Periodic task handles (nil until registered): wake hooks
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

		encaps:     netsim.BlockFor[encapped](env),
		reports:    netsim.BlockFor[openflow.StateReport](env),
		legs:       netsim.BlockFor[openflow.LFIBUpdate](env),
		pairStats:  netsim.BlockFor[openflow.PairStat](env),
		packetIns:  netsim.BlockFor[openflow.PacketIn](env),
		heartbeats: netsim.BlockFor[openflow.KeepAlive](env),
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

// registerPeriodic wires one periodic duty and adds it to the
// group-timer teardown (ElidableTask.Stop settles pending folds
// first). Every quiet predicate starts with foldGateOpen, so without
// Config.Fold the duty never folds.
func (s *Switch) registerPeriodic(interval time.Duration, run func(), quiet func() int, credit func(int)) netsim.ElidableTask {
	t := netsim.EveryElidableOrReal(s.env, interval, run, quiet, credit)
	s.cancels = append(s.cancels, t)
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
	for _, t := range s.cancels {
		t.Stop()
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
// (the "local plain packet" branch of Fig. 5). p is lent: the switch
// stamps Injected if it is zero, and keeps nothing of p once the call
// returns — what it defers or delivers is a copy.
func (s *Switch) InjectLocal(p *model.Packet) {
	now := s.env.Now()
	if p.Injected == 0 {
		p.Injected = now
	}
	s.stats.PacketsSeen++

	// The switch learns the source address from any local transmission.
	v := s.lfib.Version()
	s.lfib.Learn(p.SrcMAC, p.SrcIP, p.VLAN, 1, now)
	if s.lfib.Version() != v {
		s.noteLFIBChanged()
	}

	// 1. Flow table.
	if actions, ok := s.flows.lookup(p, now); ok {
		s.applyActions(actions, p)
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
	if len(s.candidates) > 0 {
		// The encap runs slowPathDelay from now and another first packet
		// may reuse the scratch before then: queue the targets by value.
		if s.slow == nil {
			s.slow = netsim.NewDeferred(s.env, 0, s.encapSlow)
			s.moreTargets = netsim.BlockFor[[]model.SwitchID](s.env)
		}
		it := slowItem{to: s.candidates[0], p: *p}
		if len(s.candidates) > 1 {
			it.more = s.moreTargets.Next()
			*it.more = slices.Clone(s.candidates[1:])
		}
		s.slow.Post(slowPathDelay, it)
		return
	}
	// 4. Controller.
	s.packetIn(p)
}

// handleOverlay processes an encapsulated packet arriving from the
// core (the second branch of Fig. 5).
func (s *Switch) handleOverlay(p *model.Packet) {
	s.stats.PacketsSeen++
	if s.lfib.Lookup(p.DstMAC) == nil {
		// Mis-forwarded due to a Bloom-filter false positive: drop.
		s.stats.FalsePositiveDrops++
		return
	}
	if src := p.Encap.SrcSwitch; p.FlowSeq == 0 && src != model.NoSwitch {
		s.pairFlows[src]++
		wakeTask(s.advTask) // pair statistics now pending
	}
	// Decapsulate into a local: the message stays as it was sent.
	inner := *p
	inner.Bytes -= model.EncapOverheadBytes
	inner.Encap = nil
	s.deliver(&inner)
}

// handleFlood processes a plain packet flooded by the baseline
// controller: deliver if the destination is local, silently drop
// otherwise.
func (s *Switch) handleFlood(p *model.Packet) {
	if s.lfib.Lookup(p.DstMAC) != nil {
		s.deliver(p)
	}
}

// deliver hands the hook a copy in the switch's scratch, so no caller's
// packet escapes through it (see DeliverFunc).
func (s *Switch) deliver(p *model.Packet) {
	s.stats.Delivered++
	if s.cfg.OnDeliver != nil {
		s.lent = *p
		s.cfg.OnDeliver(&s.lent, s.env.Now())
	}
}

// encapTo wraps p with the GRE-like outer header and sends it to a
// remote edge switch over the underlay. The packet and its header are
// one slot.
func (s *Switch) encapTo(remote model.SwitchID, p *model.Packet) {
	o := s.encaps.Next()
	o.pkt, o.hdr = *p, model.EncapHeader{SrcSwitch: s.cfg.ID, DstSwitch: remote}
	o.pkt.Encap = &o.hdr
	o.pkt.Bytes += model.EncapOverheadBytes
	s.stats.EncapSent++
	s.env.Send(remote, &o.pkt)
}

// encapped is an overlay packet together with its outer header.
type encapped struct {
	pkt model.Packet
	hdr model.EncapHeader
}

// slowItem is a first packet waiting out slowPathDelay with its G-FIB
// candidates, and encapSlow sends it to each in lookup order. The
// candidates after the first are behind a pointer into moreTargets, so
// a queue slot holds a packet, one target and a word.
type slowItem struct {
	to   model.SwitchID
	p    model.Packet
	more *[]model.SwitchID // the candidates after to; nil for one
}

func (s *Switch) encapSlow(it slowItem) {
	s.encapTo(it.to, &it.p)
	if it.more != nil {
		for _, t := range *it.more {
			s.encapTo(t, &it.p)
		}
	}
}

// packetIn forwards a packet to the controller over the control link.
// With the micro-batching window enabled the packet buffers
// at the switch and flushes as part of a PacketInBurst once the count
// threshold or the window deadline is hit, so a storm arrives at the
// controller as bursts instead of a message per flow.
func (s *Switch) packetIn(p *model.Packet) {
	if s.degradeFlood(p) {
		return
	}
	if s.cfg.TrackEscalations && s.noteEscalation(p) {
		return
	}
	s.stats.PacketIns++
	root := s.cfg.Tracer.StartTrace("pktin").
		Attr("sw", int64(s.cfg.ID)).Attr("reason", int64(openflow.ReasonNoMatch))
	if s.cfg.PacketInBatchMax <= 1 {
		root.End() // no batch residence: the root closes at ingress
		s.sendPacketIn(openflow.BurstPacket{Reason: openflow.ReasonNoMatch, Packet: *p, Span: root.Context()})
		return
	}
	s.pinBuf = append(s.pinBuf, openflow.BurstPacket{Reason: openflow.ReasonNoMatch, Packet: *p, Span: root.Context()})
	s.pinAt = append(s.pinAt, s.env.Now())
	if root != nil {
		s.pinSpans = append(s.pinSpans, root)
	}
	if len(s.pinBuf) >= s.cfg.PacketInBatchMax {
		s.flushPacketIns()
		return
	}
	if !s.pinFlush.Armed() {
		if s.flushFn == nil {
			s.flushFn = s.flushPacketIns
		}
		s.pinFlush = netsim.Arm(s.env, DefaultPacketInBatchWindow, s.flushFn)
	}
}

// flushPacketIns drains the micro-batching window: a single buffered
// packet ships as a plain PacketIn, several ship as one PacketInBurst.
func (s *Switch) flushPacketIns() {
	s.pinFlush.Stop()
	if len(s.pinBuf) == 0 {
		return
	}
	now := s.env.Now()
	for _, t := range s.pinAt {
		s.stats.PinBatchWait += now - t
	}
	s.stats.PinBatchWaited += uint64(len(s.pinAt))
	// Sampled escalations close their root here: the root span's
	// duration is exactly the micro-batch residence.
	for _, sp := range s.pinSpans {
		sp.End()
	}
	clear(s.pinSpans)
	s.pinAt, s.pinSpans = s.pinAt[:0], s.pinSpans[:0]
	// A lone packet leaves by value, so the window keeps its buffer; a
	// burst's items leave with the message.
	buf := s.pinBuf
	if len(buf) == 1 {
		s.pinBuf = buf[:0]
		s.sendPacketIn(buf[0])
		return
	}
	s.pinBuf = nil
	s.stats.PacketInBursts++
	s.sendCtrl(&openflow.PacketInBurst{Switch: s.cfg.ID, Items: buf})
}

// sendPacketIn sends one escalation as a plain PacketIn.
func (s *Switch) sendPacketIn(b openflow.BurstPacket) {
	m := s.packetIns.Next()
	*m = openflow.PacketIn{Switch: s.cfg.ID, Reason: b.Reason, Packet: b.Packet, Span: b.Span}
	s.sendCtrl(m)
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

// sendCtrl sends a control message to the controller this switch
// follows. Nothing is relayed around a lost control link (§III-E2's
// ring relay is not modelled); degraded mode (degradeFlood) is what
// keeps first packets flowing while the controller is silent.
func (s *Switch) sendCtrl(msg netsim.Message) {
	s.env.Send(s.master, msg)
}

// applyActions runs a rule's or PacketOut's actions. The controller
// sends only Encap (inter-group rules and their first packets) and
// Flood (the OpenFlow baseline's broadcast); other action types are
// ignored.
func (s *Switch) applyActions(actions []openflow.Action, p *model.Packet) {
	for _, a := range actions {
		switch a.Type {
		case openflow.ActionTypeEncap:
			s.encapTo(a.Remote, p)
		case openflow.ActionTypeFlood:
			s.handleFlood(p)
		}
	}
}
