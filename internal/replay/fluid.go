package replay

import (
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/tenant"
	"lazyctrl/internal/trace"
)

// View is the group assignment the fluid fold classifies flows under.
// *grouping.Grouping satisfies it; the eval harness passes the live
// controller's grouping so the classification tracks dynamic regroups
// at window granularity. A nil View means the learning-mode baseline
// (no groups: classification runs on the learned-host model instead).
type View interface {
	GroupOf(s model.SwitchID) model.GroupID
}

// FluidConfig parameterizes the analytic fold. The warm-up and timeout
// constants mirror the DES harness's cadences; the fluid error model
// (docs/emulation.md) is exactly the places this analytic picture
// diverges from the event-level machinery.
type FluidConfig struct {
	// Directory resolves hosts to switches and tenants.
	Directory *tenant.Directory
	// Lazy selects the LazyCtrl control plane; false models the
	// OpenFlow learning baseline.
	Lazy bool
	// Horizon and BucketWidth shape the per-bucket rate segments
	// (matching the emulation recorder's buckets).
	Horizon     time.Duration
	BucketWidth time.Duration
	// RuleIdleTimeout is the installed flow rules' idle timeout: a
	// (ingress switch, destination host) pair with a live rule
	// escalates nothing.
	RuleIdleTimeout time.Duration
	// GFIBWarm is when intra-group destinations become reachable
	// through the disseminated G-FIBs (advertise + dissemination
	// cadence); intra-group flows before it escalate like inter-group
	// ones.
	GFIBWarm time.Duration
	// CLIBWarm is when the controller's C-LIB has absorbed the first
	// state reports; escalations before it pend and fan an ARP relay
	// out to the tenant's designated switches.
	CLIBWarm time.Duration
	// PerFlowBaseline models per-flow (5-tuple) reactive rules: the
	// controller never installs an aggregating (ingress, dst) rule, so
	// every distinct flow's first packet escalates — an exact-match
	// rule installed for one flow cannot absorb a later flow, even on
	// the same host pair. Mirrors controller.Config.PerFlowRules.
	PerFlowBaseline bool
}

// regroupEpoch pins one immutable group assignment to the instant it
// took effect.
type regroupEpoch struct {
	at      time.Duration
	view    View
	version uint64
}

// Fluid folds a trace's full flow population into per-bucket
// controller-load aggregates without discrete events: each flow is one
// O(1) cache-model update, so a billion-flow trace costs seconds, not
// hours. The model reproduces what the DES's per-flow pipeline does to
// the controller:
//
//   - same-switch flows never escalate (L-FIB delivers locally);
//   - a live flow rule on (ingress, dst) absorbs first packets and
//     refreshes its idle timeout;
//   - intra-group flows after G-FIB warm-up ride the slow path,
//     escalating nothing;
//   - everything else is a PacketIn, plus an ARP relay per designated
//     switch of the tenant's groups while the C-LIB is cold (lazy), or
//     a learned-host check deciding install vs. flood (learning);
//   - an escalation installs the rule (resolution treated as
//     instantaneous — the fluid model's main approximation).
type Fluid struct {
	cfg     FluidConfig
	buckets int

	packetIns []float64
	arpRelays []float64

	// cache: (ingress switch, dst host) → last rule touch. Entry
	// presence means a rule was installed; liveness is the idle check.
	cache map[uint64]time.Duration
	// known: hosts the learning controller has learned (appeared as the
	// source of an escalated flow).
	known map[model.HostID]struct{}

	// targets memoizes the ARP fan-out per tenant under one grouping
	// version (distinct groups over the tenant's hosts).
	targets        map[model.TenantID]int
	targetsVersion uint64

	// epochs is the regroup timeline (NoteRegroup); epochCursor
	// amortizes the per-flow lookup since folds arrive time-ordered.
	epochs      []regroupEpoch
	epochCursor int

	population int
	// agg is the aggregate-population fold's state (fluidagg.go), nil
	// until the first FoldAggWindow call; a Fluid consumes either flow
	// windows or aggregate windows, never both.
	agg *aggFold
}

// NewFluid builds the aggregator.
func NewFluid(cfg FluidConfig) *Fluid {
	if cfg.BucketWidth <= 0 {
		cfg.BucketWidth = 2 * time.Hour
	}
	n := int((cfg.Horizon + cfg.BucketWidth - 1) / cfg.BucketWidth)
	if n < 1 {
		n = 1
	}
	return &Fluid{
		cfg:       cfg,
		buckets:   n,
		packetIns: make([]float64, n),
		arpRelays: make([]float64, n),
		cache:     make(map[uint64]time.Duration),
		known:     make(map[model.HostID]struct{}),
		targets:   make(map[model.TenantID]int),
	}
}

func (f *Fluid) bucket(at time.Duration) int {
	i := int(at / f.cfg.BucketWidth)
	if i < 0 {
		i = 0
	}
	if i >= f.buckets {
		i = f.buckets - 1
	}
	return i
}

// arpTargets returns how many designated switches a pend's ARP relay
// fans out to: the distinct groups hosting the tenant.
func (f *Fluid) arpTargets(tid model.TenantID, view View, version uint64) int {
	if view == nil {
		return 0
	}
	if version != f.targetsVersion || f.targets == nil {
		f.targets = make(map[model.TenantID]int, len(f.targets))
		f.targetsVersion = version
	}
	if n, ok := f.targets[tid]; ok {
		return n
	}
	seen := make(map[model.GroupID]struct{}, 8)
	for _, h := range f.cfg.Directory.Tenant(tid).Hosts {
		seen[view.GroupOf(f.cfg.Directory.Host(h).Switch)] = struct{}{}
	}
	f.targets[tid] = len(seen)
	return len(seen)
}

// NoteRegroup records that a (re)grouping took effect at time at. The
// fold then classifies each flow under the assignment in force at the
// flow's start, so a mid-window regroup lands on exactly the flows it
// governed instead of smearing across the whole window. Assignments
// must be immutable snapshots (e.g. grouping.Clone) noted in
// nondecreasing time order.
func (f *Fluid) NoteRegroup(at time.Duration, view View, version uint64) {
	f.epochs = append(f.epochs, regroupEpoch{at: at, view: view, version: version})
}

// viewAt resolves the assignment in force at time at: the newest noted
// epoch not after it, else the caller's fold-time fallback (covers
// runs that never note epochs, and flows predating the first note).
func (f *Fluid) viewAt(at time.Duration, view View, version uint64) (View, uint64) {
	i := f.epochCursor
	for i+1 < len(f.epochs) && f.epochs[i+1].at <= at {
		i++
	}
	for i > 0 && f.epochs[i].at > at {
		i--
	}
	f.epochCursor = i
	if len(f.epochs) == 0 || f.epochs[i].at > at {
		return view, version
	}
	return f.epochs[i].view, f.epochs[i].version
}

// FoldWindow folds one time window of flows (sorted by Start) under
// the given group assignment. version stamps the assignment so the
// ARP-target memo invalidates across regroups; when a regroup timeline
// was noted (NoteRegroup) it overrides the passed assignment per flow.
// Flows past the horizon are ignored.
func (f *Fluid) FoldWindow(flows []trace.Flow, view View, version uint64) {
	dir := f.cfg.Directory
	for i := range flows {
		fl := &flows[i]
		if fl.Start >= f.cfg.Horizon {
			break // windows are sorted; the rest is past the horizon
		}
		src := dir.Host(fl.Src)
		dst := dir.Host(fl.Dst)
		if src == nil || dst == nil {
			continue
		}
		f.population++
		if src.Switch == dst.Switch {
			continue // L-FIB delivers locally in both modes
		}
		key := uint64(src.Switch)<<32 | uint64(dst.ID)
		if !f.cfg.PerFlowBaseline {
			if last, ok := f.cache[key]; ok && fl.Start-last <= f.cfg.RuleIdleTimeout {
				f.cache[key] = fl.Start // rule hit refreshes the idle timer
				continue
			}
		}
		if f.cfg.Lazy {
			v, ver := f.viewAt(fl.Start, view, version)
			if v != nil && fl.Start >= f.cfg.GFIBWarm &&
				v.GroupOf(src.Switch) == v.GroupOf(dst.Switch) {
				continue // G-FIB slow path, no controller involved
			}
			b := f.bucket(fl.Start)
			f.packetIns[b]++
			if fl.Start < f.cfg.CLIBWarm {
				f.arpRelays[b] += float64(f.arpTargets(dst.Tenant, v, ver))
			}
			if !f.cfg.PerFlowBaseline {
				f.cache[key] = fl.Start
			}
			continue
		}
		// Learning baseline: every rule miss escalates; the controller
		// learns the source, and installs a rule only when the
		// destination was already learned (else it floods, leaving the
		// next flow on this pair to escalate again).
		f.packetIns[f.bucket(fl.Start)]++
		if _, ok := f.known[dst.ID]; ok && !f.cfg.PerFlowBaseline {
			f.cache[key] = fl.Start
		}
		f.known[src.ID] = struct{}{}
	}
}

// Population returns how many in-horizon flows were folded (per-flow
// plus aggregate-cell counts; horizon-clipped cells contribute their
// in-horizon expectation).
func (f *Fluid) Population() int {
	p := f.population
	if f.agg != nil {
		p += int(f.agg.popF + 0.5)
	}
	return p
}

// TrafficRequests returns the per-bucket traffic-driven controller
// request counts (PacketIns + ARP relays) the aggregated rates imply,
// in sampled-trace units (multiply by the trace scale to undo the
// generator's flow-count divisor, exactly like the DES recorder's
// traffic classes).
func (f *Fluid) TrafficRequests() []float64 {
	out := make([]float64, f.buckets)
	for i := range out {
		out[i] = f.packetIns[i] + f.arpRelays[i]
	}
	return out
}
