// Package controller implements the LazyCtrl central controller (§IV-B):
// C-LIB maintenance, switch-grouping management driven by the SGI
// algorithm, tenant information management, ARP relay scoped by tenant,
// inter-group rule installation with the Encap action, the failover
// module, and — for the evaluation baseline — a standard OpenFlow
// "learning switch" mode that reproduces the original Floodlight
// behavior the paper compares against.
//
// # Hot state
//
// The controller's learning-mode location table, pending-flow table
// and C-LIB (fib.CLIB) are plain maps with one owner and no locks.
// Packet-in handling is split into a decide phase that only reads them
// (destination lookup, forwarding decision) and an apply phase that
// holds every write (source learning, workload accounting, intensity
// updates, pending flows, message emission). ProcessBurst fans the
// decide phase of a packet-in storm out across contiguous chunks and
// then applies the decisions sequentially in input order, so its
// outcome does not depend on the worker count.
//
// # Batched pushes
//
// Group reconfiguration coalesces everything a switch must receive in
// a regroup round — its GroupConfig plus G-FIB preloads of its new
// peers out of the C-LIB — into one openflow.Batch per destination, so
// each round encodes and sends at most one control message per switch.
package controller

import (
	"fmt"
	"maps"
	"time"

	"lazyctrl/internal/failover"
	"lazyctrl/internal/fib"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/metrics"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/telemetry"
)

// Mode selects the control-plane behavior.
type Mode uint8

// Modes.
const (
	// ModeLazy is the LazyCtrl hybrid control plane.
	ModeLazy Mode = iota + 1
	// ModeLearning is the standard OpenFlow baseline: every flow setup
	// reaches the controller, host locations are learned passively, and
	// unknown destinations are flooded.
	ModeLearning
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeLazy:
		return "lazy"
	case ModeLearning:
		return "learning"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config parameterizes the controller.
type Config struct {
	Mode Mode
	// Switches lists all edge switches under control.
	Switches []model.SwitchID
	// GroupSizeLimit caps LCG sizes (lazy mode). Zero selects 46 (the
	// paper's storage example).
	GroupSizeLimit int
	// Seed drives SGI and designated-switch selection.
	Seed uint64
	// LoadScale converts observed (scaled-down trace) request rates to
	// estimated unscaled rates for the queueing model. Zero selects 1.
	LoadScale int
	// Dynamic enables incremental regrouping (Fig. 7's "dynamic"
	// series). Static keeps the initial grouping for the whole run.
	Dynamic bool
	// RuleIdleTimeout is the idle timeout of installed flow rules. Zero
	// selects 60 s.
	RuleIdleTimeout time.Duration
	// SyncInterval and KeepAliveInterval are handed to switches in
	// GroupConfig. Zero selects 10 s and 5 s.
	SyncInterval      time.Duration
	KeepAliveInterval time.Duration
	// Peer is the node address of the other controller replica (zero:
	// no replication). The primary journals state increments to it and
	// heartbeats it; the standby watches those heartbeats and takes the
	// master role when they stop.
	Peer model.SwitchID
	// Standby starts this replica in the standby role: it mirrors state
	// from the journal and runs no switch-facing duties until takeover.
	Standby bool
	// PerFlowRules selects the per-flow (5-tuple) reactive baseline for
	// learning mode: the controller answers each escalation with the
	// buffered packet only and installs no flow rule. A faithful
	// per-flow rule would never be hit again inside the emulation —
	// only first packets of distinct flows reach the datapath, and two
	// flows of one host pair are indistinguishable at the MAC/IP match
	// granularity the wire model carries — so omitting the install *is*
	// the per-flow cache model: every distinct flow's first packet
	// escalates, which is what the paper's OpenFlow baseline measures.
	PerFlowRules bool
	// FoldGate, when set, enables analytic elision of the controller's
	// quiescent periodic rounds (keep-alive probing/failure checking,
	// ARP expiry): runs of provably no-op rounds collapse into one bulk
	// event crediting their aggregate effect (see fold.go). It reports
	// whether folding is currently allowed — the harness wires it to the
	// underlay's fault-free predicate — and takes effect only on the
	// DES, where every periodic duty is a sim.Elider (see
	// netsim.EveryElidableOrReal).
	FoldGate func() bool
	// FoldMeter credits the wire bytes of messages a folded round would
	// have sent (same contract as edge.FoldHooks.Meter).
	FoldMeter func(from, to model.SwitchID, msg openflow.Message, copies uint64)
	// Recorder receives workload accounting (may be nil).
	Recorder *metrics.Recorder
	// Tracer receives causal spans (may be nil). Spans are created only
	// in ordered code — the apply phase and periodic duties, never
	// ProcessBurst's parallel decide — so the dump stays deterministic.
	Tracer *telemetry.Tracer
	// OnDiagnosis is invoked when the failover module reaches a
	// diagnosis; the harness wires recovery actions that need to touch
	// the simulated underlay (detours, reboots).
	OnDiagnosis func(suspect model.SwitchID, diag failover.Diagnosis)
}

func (c Config) withDefaults() Config {
	if c.GroupSizeLimit == 0 {
		c.GroupSizeLimit = 46
	}
	if c.LoadScale < 1 {
		c.LoadScale = 1
	}
	if c.RuleIdleTimeout == 0 {
		c.RuleIdleTimeout = 60 * time.Second
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = 10 * time.Second
	}
	if c.KeepAliveInterval == 0 {
		c.KeepAliveInterval = 5 * time.Second
	}
	return c
}

// The paper's fixed parameters and this model's calibration constants:
// values no caller varies, named once and read by everything.
const (
	serviceRate          = 8000                   // req/s unscaled: Floodlight on the paper's Core 2 Duo host
	regroupMinInterval   = 2 * time.Minute        // §IV-B: minimum gap between regroupings, against oscillation
	regroupCheckInterval = 30 * time.Second       // cadence of the §IV-B trigger evaluation
	regroupHighLoad      = 0.35                   // Fig. 3 thresholds on normalized inter-group intensity: above a
	regroupLowLoad       = 0.30                   // well-grouped DC's scatter floor, below the expanded trace's drift
	arpTimeout           = 200 * time.Millisecond // pending-flow lifetime: many relay round trips, a bounded table
	takeoverMisses       = 3                      // silent heartbeat intervals before takeover, as the keep-alive heuristics
)

// serviceTime is one request's CPU time at serviceRate, and the gap
// between two copies of a flood.
const serviceTime = time.Second / serviceRate

// pushRetryTimeout is the supervision deadline on GroupConfig pushes,
// doubling per attempt up to 8×: two keep-alive intervals, faster than
// the 3-interval failure heuristics, so a lost push never strands a
// destination until the next regroup.
func (c *Controller) pushRetryTimeout() time.Duration { return 2 * c.cfg.KeepAliveInterval }

// pendingFlow is a PacketIn awaiting host-location resolution.
type pendingFlow struct {
	ingress model.SwitchID
	packet  model.Packet
	since   time.Duration
}

// Controller is the central controller node.
type Controller struct {
	cfg Config
	env netsim.Env

	// addr is this replica's node address: model.ControllerNode for the
	// primary, model.StandbyNode for the standby.
	addr model.SwitchID

	// Replication state (see replica.go). generation is the cluster
	// generation this replica last held or observed; it is stamped into
	// every switch-bound push and only ever increases (owner-only
	// writes, enforced by the versionstamp analyzer).
	generation uint64
	isStandby  bool
	// peerLastKA/peerSeen track the primary's heartbeats (standby role);
	// peerSynced records whether the standby was sent its bootstrap
	// snapshot (master role); standbySeq numbers the standby's own
	// watch heartbeats so a fresh standby (seq 1) triggers a re-sync.
	peerLastKA time.Duration
	peerSeen   bool
	peerSynced bool
	standbySeq uint64
	// Takeover timeline instrumentation: rebuildPending holds the groups
	// whose post-takeover designated report is still outstanding;
	// awaitingRepush is set until every re-pushed config is acked.
	rebuildPending map[model.GroupID]bool
	awaitingRepush bool
	takeovers      []TakeoverTimeline

	clib      *fib.CLIB
	grp       *grouping.Grouping
	sgi       *grouping.SGI
	intensity *grouping.Intensity

	// Tenant information management: VLAN → tenant.
	tenants map[model.VLAN]model.TenantID

	// Per-MAC hot state: the learning-mode location table and the
	// pending-flow table (see hotstate.go).
	state hotState

	// Queueing model state.
	reqWindowStart time.Duration
	reqWindowCount uint64
	lastRate       float64 // unscaled estimated requests/sec
	backgroundRate float64 // floor for the rate estimate

	// Regrouping state.
	lastRegroupAt   time.Duration
	groupingVersion uint64
	// sw holds one record per configured switch (see switchRecord).
	sw map[model.SwitchID]*switchRecord

	// Failover.
	detector *failover.Detector
	kaSeq    uint64

	// pushing guards against a push-retry timer firing inside the push
	// round that armed it (possible only under an env whose After runs
	// callbacks synchronously, as some test harnesses do).
	pushing bool

	// regroupCtx is the regroup-round trace context push rounds attach
	// to (zero outside a traced round). See trace.go.
	regroupCtx telemetry.SpanContext

	// posts holds the PacketOuts and installs waiting out queueDelay,
	// each in a slot of its block (see netsim.BlockFor).
	posts       *netsim.Deferred[sender]
	forwardings *netsim.Block[forwarding]
	installs    *netsim.Block[install]
	// floods runs a flood's copies as a series (nil off the DES, where
	// apply posts every copy up front; see flood).
	floods *netsim.Sequencer

	// Periodic task handles (kaTask is nil without Config.FoldGate).
	kaTask     netsim.ElidableTask
	expireTask netsim.ElidableTask

	// Stats.
	stats Stats
}

// switchRecord is everything the controller tracks about one switch.
// The records are built once in New over Config.Switches, so per-switch
// state is bounded by construction: a message naming any other switch
// finds no record and changes nothing.
type switchRecord struct {
	// pushedCfg fingerprints the group view last sent to the switch
	// (zero: none); an unchanged view is not re-sent. pushedFilters
	// records the filter version last pushed to it per group peer —
	// assumed delivered until a GFIBNack says otherwise — which is what
	// lets a push round choose skip vs. delta vs. full per destination.
	pushedCfg     uint64
	pushedFilters map[model.SwitchID]uint64
	// filter is the switch's preload filter, built out of the C-LIB and
	// shipped to its peers.
	filter fib.PeerFilter
	// lastAck is when the switch last proved itself alive (valid once
	// acked); dead is the failover module's standing verdict.
	lastAck time.Duration
	acked   bool
	dead    bool
	// push is the retry state of the last GroupConfig sent to the
	// switch, nil once its ConfigAck arrived; pushSpan is that push's
	// open telemetry span (see trace.go).
	push     *pushRetry
	pushSpan *telemetry.Span
	// encap holds Encap(switch), the action list every rule and
	// PacketOut toward the switch shares as encap[:]: a message handed to
	// Send is never written again, and the edge copies a rule's actions.
	encap [1]openflow.Action
}

// Stats counts controller-side events.
type Stats struct {
	PacketIns     uint64
	FlowModsSent  uint64
	PacketOuts    uint64
	Floods        uint64
	ARPRelays     uint64
	StateReports  uint64
	Regroupings   uint64
	Unresolved    uint64
	FailuresSeen  uint64
	RulesPreload  uint64
	KeepAliveLost uint64
	// BatchedPushes counts openflow.Batch messages sent by regroup
	// rounds (≤1 per destination switch per round).
	BatchedPushes uint64
	// LearnedEvicted and PendingEvicted count entries purged from the
	// hot-state tables when a switch is diagnosed dead.
	LearnedEvicted uint64
	PendingEvicted uint64
	// PreloadFulls and PreloadDeltas count per-destination preload
	// filter items pushed in full vs. as word deltas; PushesSkipped
	// counts destinations a push round sent nothing to (their group
	// view and peer filters were already current).
	PreloadFulls  uint64
	PreloadDeltas uint64
	PushesSkipped uint64
	// PreloadNacks counts GFIBNack resync requests answered with full
	// filters.
	PreloadNacks uint64
	// FilterRemovalsSent counts G-FIB tombstones broadcast to a dead
	// switch's group after DiagSwitch closed, so non-neighbor members
	// evict its filter immediately instead of waiting for the next
	// membership change.
	FilterRemovalsSent uint64
	// ConfigAcks counts GroupConfig acknowledgments received;
	// PushRetries counts supervised re-pushes fired by a missing ack.
	ConfigAcks  uint64
	PushRetries uint64
	// Resurrections counts falsely-diagnosed switches brought back by
	// proof of life (a keep-alive ack, config ack, or ARP answer
	// arriving while the switch was marked dead).
	Resurrections uint64
	// Replication counters: Takeovers and StepDowns count role changes
	// on this replica; SyncRecordsSent/Applied count journal traffic;
	// StaleSyncRejected counts journal records fenced behind the
	// receiver's generation.
	Takeovers          uint64
	StepDowns          uint64
	SyncRecordsSent    uint64
	SyncRecordsApplied uint64
	StaleSyncRejected  uint64
}

// New constructs a controller.
func New(cfg Config, env netsim.Env) (*Controller, error) {
	c := cfg.withDefaults()
	if c.Mode != ModeLazy && c.Mode != ModeLearning {
		return nil, fmt.Errorf("controller: invalid mode %v", c.Mode)
	}
	if len(c.Switches) == 0 {
		return nil, fmt.Errorf("controller: no switches")
	}
	sgi, err := grouping.New(grouping.Config{
		SizeLimit: c.GroupSizeLimit,
		Seed:      c.Seed,
		HighLoad:  regroupHighLoad,
		LowLoad:   regroupLowLoad,
	})
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	// Pre-register every switch so the intensity matrix's dense index
	// layout is fixed from t=0: later traffic accounting is pure O(degree)
	// weight updates, and silent switches still participate in regrouping.
	intensity := grouping.NewIntensity()
	for _, sw := range c.Switches {
		intensity.AddSwitch(sw)
	}
	addr := model.ControllerNode
	if c.Standby {
		addr = model.StandbyNode
	}
	records := make(map[model.SwitchID]*switchRecord, len(c.Switches))
	for _, sw := range c.Switches {
		records[sw] = &switchRecord{encap: [1]openflow.Action{openflow.Encap(sw)}}
	}
	return &Controller{
		cfg:  c,
		env:  env,
		addr: addr,
		// Both replicas are born at generation 1 (not 0, the unfenced
		// sentinel): a standby that never heard the primary still takes
		// over at a strictly greater generation than the one it started
		// with, and a solo controller's pushes are fenceable from t=0.
		generation: 1,
		isStandby:  c.Standby,
		clib:       fib.NewCLIB(),
		grp:        grouping.NewGrouping(),
		sgi:        sgi,
		intensity:  intensity,
		tenants:    make(map[model.VLAN]model.TenantID),
		state:      newHotState(),
		sw:         records,
		detector:   failover.NewDetector(3 * c.KeepAliveInterval),
		posts:      netsim.NewDeferred(env, 0, sender.send),

		forwardings: netsim.BlockFor[forwarding](env),
		installs:    netsim.BlockFor[install](env),
		floods:      netsim.SequencerFor(env),
	}, nil
}

// NodeID implements netsim.Node.
func (c *Controller) NodeID() model.SwitchID { return c.addr }

// CLIB exposes the central location information base (read-only use).
func (c *Controller) CLIB() *fib.CLIB { return c.clib }

// Grouping returns the current grouping (read-only use).
func (c *Controller) Grouping() *grouping.Grouping { return c.grp }

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// GroupingVersion returns the current grouping version.
func (c *Controller) GroupingVersion() uint64 { return c.groupingVersion }

// IsDead reports whether the failover module currently considers a
// switch dead.
func (c *Controller) IsDead(sw model.SwitchID) bool {
	rec := c.sw[sw]
	return rec != nil && rec.dead
}

// RegisterTenant records a VLAN → tenant binding (tenant information
// management module).
func (c *Controller) RegisterTenant(vlan model.VLAN, tenant model.TenantID) {
	c.tenants[vlan] = tenant
}

// Start begins periodic duties: keep-alives, failover checks, ARP
// expiry (one elidable task in both modes) and, in lazy dynamic mode,
// regroup-trigger evaluation, which stays real: it reads the intensity
// matrix, which folding cannot reason about. Under the control fold the
// keep-alive send and failure check are one elidable task
// (send-then-check, the order of the two plain tasks they are without
// it). Merging them without the fold would halve their events and move
// every non-fold golden digest.
func (c *Controller) Start() {
	if c.cfg.FoldGate != nil {
		c.kaTask = netsim.EveryElidableOrReal(c.env, c.cfg.KeepAliveInterval,
			func() { c.sendKeepAlives(); c.checkFailures() },
			c.kaQuiet, c.kaCredit)
	} else {
		c.env.Every(c.cfg.KeepAliveInterval, c.sendKeepAlives)
		c.env.Every(c.cfg.KeepAliveInterval, c.checkFailures)
	}
	c.expireTask = netsim.EveryElidableOrReal(c.env, arpTimeout,
		c.expirePending, c.expireQuiet, func(int) {})
	if c.regroups() {
		c.env.Every(regroupCheckInterval, c.maybeRegroup)
	}
	if c.cfg.Peer != 0 {
		// Standby-role duty: heartbeat the primary and take over when it
		// goes silent. Registered on both replicas — it gates on the
		// current role, which changes at runtime (takeover, step-down).
		c.env.Every(c.cfg.KeepAliveInterval, c.watchPrimary)
	}
}

// SameGroup reports whether two switches share a local control group —
// handed to netsim for peer-link classification.
func (c *Controller) SameGroup(a, b model.SwitchID) bool {
	ga := c.grp.GroupOf(a)
	return ga != model.NoGroup && ga == c.grp.GroupOf(b)
}

// InitialGrouping runs IniGroup on a warmup intensity matrix (the paper
// seeds grouping from the first-hour traffic) and pushes the group
// configuration to all switches. In learning mode it is a no-op.
func (c *Controller) InitialGrouping(m *grouping.Intensity) error {
	if c.cfg.Mode != ModeLazy {
		return nil
	}
	for _, sw := range m.Switches() {
		if c.sw[sw] == nil {
			return fmt.Errorf("controller: initial grouping: warmup intensity names unconfigured switch %v", sw)
		}
	}
	// Every switch participates even if silent during warmup.
	seeded := m.Clone()
	for _, sw := range c.cfg.Switches {
		seeded.AddSwitch(sw)
	}
	root := c.cfg.Tracer.StartTrace("regroup").Attr("initial", 1)
	mlkp := c.cfg.Tracer.StartSpan(root.Context(), "regroup.mlkp")
	grp, err := c.sgi.IniGroup(seeded)
	mlkp.End()
	if err != nil {
		root.End()
		return fmt.Errorf("controller: initial grouping: %w", err)
	}
	c.grp = grp
	c.intensity = seeded
	c.groupingVersion++
	c.stats.Regroupings++
	c.lastRegroupAt = c.env.Now()
	c.journalGrouping()
	c.regroupCtx = root.Context()
	sent := c.pushGroupConfigs(true)
	c.regroupCtx = telemetry.SpanContext{}
	root.Attr("sent", int64(sent)).End()
	if c.cfg.Recorder != nil {
		c.cfg.Recorder.RecordUpdate(c.env.Now())
	}
	return nil
}

// regroups reports whether the controller re-evaluates its grouping at
// run time (lazy dynamic mode). Only a regroup reads the intensity
// matrix after InitialGrouping, which replaces it, so flows and report
// pairs are counted into it only then.
func (c *Controller) regroups() bool {
	return c.cfg.Mode == ModeLazy && c.cfg.Dynamic
}

// pushGroupConfigs sends each switch its group view (§III-D1 setup
// phase: designated selection, wheel ordering, timing parameters)
// coalesced with G-FIB preloads of the switch's peers out of the C-LIB
// (the Appendix-B "preload for seamless grouping update") into at most
// one OpenFlow message per destination per round — and, new in the
// versioned protocol, possibly none: per destination the round ships
// only what that destination does not already hold. The group view is
// fingerprinted per destination; each peer filter is version-tracked
// per destination and sent as a word-level delta when the destination
// holds the previous cached version, in full when it holds nothing
// usable, and not at all when it is current. Every round first prunes
// each destination's acked versions to its group's current members, so
// a peer that left and came back is preloaded in full.
//
// kickDesignated forces the config through to every group's designated
// switch even when its view is unchanged: receiving a GroupConfig
// makes a designated switch advertise, disseminate, and report
// promptly, so after an effective regrouping the controller's freshly
// decayed intensity matrix refills within seconds instead of waiting
// out the report interval — the §IV-B trigger then reacts to fresh
// traffic, not to decay artifacts. That is one small message per group
// per regroup, against the full fabric push it replaces.
//
// It returns the number of destinations that actually received a
// message, which is what regroup workload accounting records.
func (c *Controller) pushGroupConfigs(kickDesignated bool) int {
	c.pushing = true
	defer func() { c.pushing = false }()
	sent := 0
	for _, gid := range c.grp.GroupIDs() {
		members := c.grp.Members(gid)
		wheel := failover.BuildWheel(members)
		designated := c.chooseDesignated(members)
		var backups []model.SwitchID
		if len(members) > 1 {
			for _, m := range members {
				if m != designated {
					backups = append(backups, m)
					break
				}
			}
		}
		// Refresh the preload filters of members whose reported L-FIB
		// version moved; each is shared across every destination.
		if len(members) > 1 {
			for _, m := range members {
				c.refreshPeerFilter(m)
			}
		}
		for _, m := range members {
			rec := c.sw[m]
			prev, next := failover.Neighbors(wheel, m)
			cfgMsg := &openflow.GroupConfig{
				Group:             gid,
				Members:           members,
				Designated:        designated,
				Backups:           backups,
				RingPrev:          prev,
				RingNext:          next,
				SyncInterval:      c.cfg.SyncInterval,
				KeepAliveInterval: c.cfg.KeepAliveInterval,
				Version:           c.groupingVersion,
				Generation:        c.generation,
			}
			cfgFP := configFingerprint(cfgMsg)
			var msgs []openflow.Message
			sentCfg := false
			if rec.pushedCfg != cfgFP || (kickDesignated && m == designated) {
				msgs = append(msgs, cfgMsg)
				sentCfg = true
			}
			// Forget the acked versions of peers that left the group:
			// the switch drops their filters when it applies this view
			// and keeps the others (edge.handleGroupConfig invalidates
			// selectively). A kept filter that was in fact lost (peer
			// evidence eviction) is repaired by the NACK path.
			maps.DeleteFunc(rec.pushedFilters, func(peer model.SwitchID, _ uint64) bool { return c.grp.GroupOf(peer) != gid })
			var nFull, nDelta int
			if len(members) > 1 {
				update, delta := c.buildPreload(gid, m, members)
				if update != nil {
					msgs = append(msgs, update)
					nFull = len(update.Filters)
				}
				if delta != nil {
					msgs = append(msgs, delta)
					nDelta = len(delta.Deltas)
				}
			}
			if len(msgs) == 0 {
				c.stats.PushesSkipped++
				c.tracePushSkip(m)
				continue
			}
			rec.pushedCfg = cfgFP
			sent++
			if len(msgs) == 1 {
				c.env.Send(m, msgs[0])
			} else {
				c.stats.BatchedPushes++
				c.env.Send(m, &openflow.Batch{Generation: c.generation, Msgs: msgs})
			}
			c.tracePush(m, sentCfg && !rec.dead, nFull, nDelta)
			if sentCfg && !rec.dead {
				c.supervisePush(m, c.groupingVersion)
			}
		}
		// C-LIB group tags follow the new grouping; the host→switch
		// mapping itself is unchanged (§III-D3).
		for _, m := range members {
			c.clib.SetGroup(m, gid)
		}
	}
	return sent
}

// pushRetry is the supervision state of one outstanding GroupConfig
// push: the grouping version it carried, how many times it has been
// retried, and the pending timer.
type pushRetry struct {
	version  uint64
	attempts int
	cancel   func()
}

// maxPushAttempts bounds supervised re-pushes per destination; a
// destination silent through every attempt is left to the keep-alive
// heuristics (it is either dead — soon diagnosed — or will recover via
// MarkRecovered or resurrection, both of which re-arm supervision).
const maxPushAttempts = 6

// supervisePush arms (or re-arms) the retry timer for a GroupConfig
// just sent to dest. The destination's ConfigAck cancels it; if it
// fires instead, the destination's push tracking is forgotten and the
// config is re-shipped, with the deadline doubling per attempt.
func (c *Controller) supervisePush(dest model.SwitchID, version uint64) {
	rec := c.sw[dest]
	p := rec.push
	if p == nil {
		p = &pushRetry{}
		rec.push = p
	} else {
		if p.cancel != nil {
			p.cancel()
		}
		if p.version != version {
			p.attempts = 0
		}
	}
	p.version = version
	base := c.pushRetryTimeout()
	d := min(base<<uint(p.attempts), base<<3)
	p.cancel = c.env.After(d, func() { c.retryPush(dest) })
}

// retryPush re-ships an unacknowledged GroupConfig.
func (c *Controller) retryPush(dest model.SwitchID) {
	rec := c.sw[dest]
	if c.pushing {
		// Synchronous-After env: the timer fired inside the push round
		// that armed it. Supervision is meaningless without real time.
		rec.push = nil
		return
	}
	p := rec.push
	if p == nil {
		return
	}
	p.cancel = nil
	if rec.dead || p.attempts >= maxPushAttempts {
		c.endPush(dest, "abandoned")
		return
	}
	p.attempts++
	c.stats.PushRetries++
	// The push round then re-ships the destination's config and
	// preloads — and only to it, since every other destination's
	// tracking is intact.
	c.forgetPushed(dest)
	c.pushGroupConfigs(false)
}

// endPush closes a switch's push supervision — retry timer and open
// push span, stamped with the outcome: acked, cancelled or abandoned.
func (c *Controller) endPush(sw model.SwitchID, outcome string) {
	rec := c.sw[sw]
	if p := rec.push; p != nil {
		if p.cancel != nil {
			p.cancel()
		}
		rec.push = nil
	}
	if sp := rec.pushSpan; sp != nil {
		sp.Attr(outcome, 1).End()
		rec.pushSpan = nil
	}
}

// pushOutstanding reports whether any supervised push still awaits its
// ConfigAck.
func (c *Controller) pushOutstanding() bool {
	for _, rec := range c.sw {
		if rec.push != nil {
			return true
		}
	}
	return false
}

// forgetPushed drops what the controller believes the given switches
// hold, so the next push round re-ships their config and full preloads:
// the one answer to everything that breaks per-destination tracking's
// send == delivered assumption (a missing ack, a silent control link, a
// reboot, a change of master). The filter map is emptied, not dropped,
// so the next round refills it without growing a new one.
func (c *Controller) forgetPushed(dests ...model.SwitchID) {
	for _, d := range dests {
		rec := c.sw[d]
		rec.pushedCfg = 0
		clear(rec.pushedFilters)
	}
}

// repush is the "bump, journal, push" transition behind every change to
// who may be designated: a new grouping version, the assignment
// journalled to the standby under it, and a push round.
func (c *Controller) repush(kickDesignated bool) {
	c.groupingVersion++
	c.journalGrouping()
	c.pushGroupConfigs(kickDesignated)
}

// refreshPeerFilter rebuilds a switch's preload filter when the C-LIB's
// recorded L-FIB version for it moved. A switch without C-LIB entries
// has no filter (and loses any built one — e.g. after failover
// eviction).
func (c *Controller) refreshPeerFilter(sw model.SwitchID) {
	rec := c.sw[sw]
	v := c.clib.VersionOn(sw)
	if built, ok := rec.filter.Version(); ok && built == v {
		return
	}
	entries := c.clib.EntriesOn(sw)
	if len(entries) == 0 {
		rec.filter.Reset()
		return
	}
	rec.filter.Rebuild(entries, v)
}

// buildPreload assembles the G-FIB preload for one destination: per
// peer, skip when the destination already holds the current filter
// version, and otherwise ship what the peer's filter offers against
// the version the destination holds — a delta or the full filter.
func (c *Controller) buildPreload(gid model.GroupID, dest model.SwitchID, members []model.SwitchID) (*openflow.GFIBUpdate, *openflow.GFIBDelta) {
	var update *openflow.GFIBUpdate
	var delta *openflow.GFIBDelta
	acked := c.sw[dest].pushedFilters
	for _, peer := range members {
		if peer == dest {
			continue
		}
		pf := &c.sw[peer].filter
		curV, built := pf.Version()
		if !built {
			continue
		}
		ackedV, has := acked[peer]
		if has && ackedV == curV {
			continue // destination is current for this peer
		}
		if has {
			if d, ok := pf.Delta(peer, ackedV); ok {
				if delta == nil {
					delta = &openflow.GFIBDelta{Group: gid, Version: c.groupingVersion, Generation: c.generation}
				}
				delta.Deltas = append(delta.Deltas, d)
				c.stats.PreloadDeltas++
				c.markPushed(dest, peer, curV)
				continue
			}
		}
		if update == nil {
			update = &openflow.GFIBUpdate{Group: gid, Version: c.groupingVersion, Generation: c.generation}
		}
		update.Filters = append(update.Filters, pf.Full(peer))
		c.stats.PreloadFulls++
		c.stats.RulesPreload += uint64(pf.Entries())
		c.markPushed(dest, peer, curV)
	}
	return update, delta
}

// markPushed records the filter version just shipped to a destination.
func (c *Controller) markPushed(dest, peer model.SwitchID, v uint64) {
	rec := c.sw[dest]
	if rec.pushedFilters == nil {
		rec.pushedFilters = make(map[model.SwitchID]uint64)
	}
	rec.pushedFilters[peer] = v
}

// configFingerprint hashes everything a destination learns from its
// GroupConfig except the grouping version: a regroup round that leaves
// a switch's view intact (same group, members, designated, wheel
// neighbors, timing) need not re-send it just because the global
// version counter moved.
func configFingerprint(m *openflow.GroupConfig) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(m.Group))
	mix(uint64(m.Designated))
	mix(uint64(m.RingPrev))
	mix(uint64(m.RingNext))
	mix(uint64(m.SyncInterval))
	mix(uint64(m.KeepAliveInterval))
	mix(uint64(len(m.Members)))
	for _, id := range m.Members {
		mix(uint64(id))
	}
	mix(uint64(len(m.Backups)))
	for _, id := range m.Backups {
		mix(uint64(id))
	}
	return h
}

// chooseDesignated picks the designated switch for a group. The paper
// allows any principle (shortest distance, response time); the
// deterministic choice here is the live member with the smallest
// management MAC.
func (c *Controller) chooseDesignated(members []model.SwitchID) model.SwitchID {
	return c.designatedIf(members, model.NoSwitch)
}

// designatedIf is chooseDesignated with one switch counted as live
// whatever its dead mark says: the choice as it stood before that
// switch was diagnosed.
func (c *Controller) designatedIf(members []model.SwitchID, live model.SwitchID) model.SwitchID {
	wheel := failover.BuildWheel(members)
	for _, m := range wheel {
		if m == live || !c.IsDead(m) {
			return m
		}
	}
	return wheel[0]
}
