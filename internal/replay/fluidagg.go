package replay

import (
	"math"
	"slices"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/tenant"
	"lazyctrl/internal/trace"
)

// This file is the aggregate-population half of the fluid engine:
// FoldAggWindow consumes trace.PairAgg cells — one (pair, flow count)
// per active pair per window — instead of individual flow records, and
// replaces the per-flow cache walk with a closed-form model of the same
// cache. FoldWindow's per-flow semantics are the reference; every
// branch below mirrors one of its branches, in expectation:
//
//   - flows scatter uniformly over the window, so a cell's nd flows on
//     one direction of a pair form (approximately) a Poisson stream of
//     rate λ = nd/span;
//   - the rule cache keyed (ingress switch, dst host) is shared by
//     every cell mapping to the key, so cells are first aggregated per
//     directional key (colocated sources feeding one destination share
//     one rule — the coupling that makes aggregating rules effective);
//   - a rule live at the window's first expected arrival absorbs it;
//     each later arrival misses iff its gap exceeds the idle timeout,
//     P(gap > T) = exp(−λT), so expected misses are
//     (live ? 0 : min(nd,1)) + max(nd−1,0)·exp(−λT);
//   - per-flow-baseline mode has no rule aggregation: every flow of
//     the cell is a miss;
//   - lazy intra-group segments refresh a live rule (or let it die)
//     and never install or escalate, exactly like FoldWindow's
//     ordering (cache hit first, then the G-FIB path);
//   - windows are cut into segments at the warm-up marks, bucket
//     boundaries, and regroup epochs, so every segment has one bucket,
//     one group view, and one warm-up phase.
//
// The learning baseline's known-host set advances at window
// granularity: endpoints of every escalating cell are learned at the
// window's end (per-flow learning converges within the first window at
// any realistic density, so the transient divergence is confined to
// window 0).

// rotAggCache bounds the fold's rule-cache memory over unbounded key
// churn (the expanded traces' extras realize hundreds of millions of
// one-off keys at full scale). Entries older than two rotation widths
// are dropped wholesale; with width ≥ the idle timeout a dropped entry
// could never satisfy a liveness check anyway, so eviction is
// semantically invisible.
type rotAggCache struct {
	cur, prev map[uint64]time.Duration
	epoch     time.Duration
	width     time.Duration
}

func newRotAggCache(width time.Duration) *rotAggCache {
	if width < time.Second {
		width = time.Second
	}
	return &rotAggCache{
		cur:   make(map[uint64]time.Duration),
		prev:  make(map[uint64]time.Duration),
		width: width,
	}
}

func (c *rotAggCache) get(k uint64) (time.Duration, bool) {
	if t, ok := c.cur[k]; ok {
		return t, true
	}
	t, ok := c.prev[k]
	return t, ok
}

func (c *rotAggCache) set(k uint64, at time.Duration) {
	switch {
	case at >= c.epoch+2*c.width:
		// Both generations are entirely older than the retention floor.
		clear(c.cur)
		clear(c.prev)
		c.epoch = at - at%c.width
	case at >= c.epoch+c.width:
		c.prev, c.cur = c.cur, c.prev
		clear(c.cur)
		c.epoch += c.width
	}
	c.cur[k] = at
}

// aggEntry is one directional rule key's per-window accumulation.
type aggEntry struct {
	key    uint64
	srcSw  model.SwitchID
	dstSw  model.SwitchID
	dstID  model.HostID
	tenant model.TenantID
	flows  float64
}

// aggSeg is one constant-context slice of a window.
type aggSeg struct {
	a, b     time.Duration
	frac     float64
	bucket   int
	view     View
	version  uint64
	preCLIB  bool
	postGFIB bool
}

// aggFold is the aggregate fold's reusable state, attached to a Fluid
// on first FoldAggWindow call.
type aggFold struct {
	idx     map[uint64]int32
	entries []aggEntry
	cache   *rotAggCache
	segs    []aggSeg
	cutBuf  []time.Duration
	popF    float64
	// bgMemo caches the background classification per grouping version;
	// bgNil is the view-less (learning / pre-note) entry.
	bgMemo map[uint64]bgClass
	bgNil  *bgClass
}

func (f *Fluid) aggState() *aggFold {
	if f.agg == nil {
		f.agg = &aggFold{
			idx:   make(map[uint64]int32),
			cache: newRotAggCache(f.cfg.RuleIdleTimeout),
		}
	}
	return f.agg
}

// aggSegments cuts [from, to) at the warm-up marks, bucket boundaries,
// and regroup epochs, resolving each segment's bucket and group view
// once (shared by every key).
func (f *Fluid) aggSegments(from, to time.Duration, view View, version uint64) []aggSeg {
	a := f.agg
	cuts := a.cutBuf[:0]
	add := func(t time.Duration) {
		if t > from && t < to {
			cuts = append(cuts, t)
		}
	}
	add(f.cfg.GFIBWarm)
	add(f.cfg.CLIBWarm)
	bw := f.cfg.BucketWidth
	for t := (from/bw + 1) * bw; t < to; t += bw {
		add(t)
	}
	for _, e := range f.epochs {
		add(e.at)
	}
	// Insertion sort: the cut list is tiny (usually empty) and nearly
	// sorted already.
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	a.cutBuf = cuts
	span := float64(to - from)
	segs := a.segs[:0]
	prev := from
	emit := func(b time.Duration) {
		if b <= prev {
			return
		}
		mid := prev + (b-prev)/2
		v, ver := f.viewAt(mid, view, version)
		segs = append(segs, aggSeg{
			a: prev, b: b,
			frac:     float64(b-prev) / span,
			bucket:   f.bucket(mid),
			view:     v,
			version:  ver,
			preCLIB:  mid < f.cfg.CLIBWarm,
			postGFIB: mid >= f.cfg.GFIBWarm,
		})
		prev = b
	}
	for _, c := range cuts {
		emit(c)
	}
	emit(to)
	a.segs = segs
	return segs
}

// FoldAggWindow folds one window's aggregate population cells, emitted
// by a trace.AggStream for the [from, to) span, under the given group
// assignment (overridden per segment by the NoteRegroup timeline, like
// FoldWindow). Cells wholly or partly past the horizon are clipped
// proportionally.
func (f *Fluid) FoldAggWindow(aggs []trace.PairAgg, from, to time.Duration, view View, version uint64) {
	if to <= from || from >= f.cfg.Horizon {
		return
	}
	a := f.aggState()
	clipTo := to
	if clipTo > f.cfg.Horizon {
		clipTo = f.cfg.Horizon
	}
	clip := float64(clipTo-from) / float64(to-from)
	segs := f.aggSegments(from, clipTo, view, version)

	// Pass 1: aggregate cells by directional rule key. A cell's count
	// covers both directions; each direction contributes half to its
	// (ingress switch, dst host) key.
	dir := f.cfg.Directory
	clear(a.idx)
	a.entries = a.entries[:0]
	addDir := func(sw model.SwitchID, h *tenant.Host, hSw model.SwitchID, n float64) {
		key := uint64(sw)<<32 | uint64(h.ID)
		if j, ok := a.idx[key]; ok {
			a.entries[j].flows += n
			return
		}
		a.idx[key] = int32(len(a.entries))
		a.entries = append(a.entries, aggEntry{
			key: key, srcSw: sw, dstSw: hSw, dstID: h.ID, tenant: h.Tenant, flows: n,
		})
	}
	for i := range aggs {
		r := &aggs[i]
		src := dir.Host(r.Src)
		dst := dir.Host(r.Dst)
		if src == nil || dst == nil {
			continue
		}
		n := float64(r.Flows) * clip
		a.popF += n
		if src.Switch == dst.Switch {
			continue // L-FIB delivers locally in both modes
		}
		addDir(src.Switch, dst, dst.Switch, n/2)
		addDir(dst.Switch, src, src.Switch, n/2)
	}

	// Pass 2: the closed-form cache model per key per segment.
	T := f.cfg.RuleIdleTimeout
	Tf := float64(T)
	for i := range a.entries {
		e := &a.entries[i]
		for s := range segs {
			seg := &segs[s]
			nSeg := e.flows * seg.frac
			if nSeg <= 0 {
				continue
			}
			segSpan := float64(seg.b - seg.a)
			dt := time.Duration(segSpan / (nSeg + 1))
			first := seg.a + dt
			if f.cfg.Lazy && seg.postGFIB && seg.view != nil &&
				seg.view.GroupOf(e.srcSw) == seg.view.GroupOf(e.dstSw) {
				// Intra-group slow path: a live rule keeps absorbing and
				// refreshing while the gaps stay inside the idle timeout;
				// once it dies nothing reinstalls it (the G-FIB path
				// escalates nothing), matching FoldWindow's hit-then-intra
				// ordering.
				if f.cfg.PerFlowBaseline {
					continue
				}
				if last, ok := a.cache.get(e.key); ok && first-last <= T {
					alive := 1.0
					if nSeg > 1 {
						q := 1 - math.Exp(-Tf*nSeg/segSpan)
						alive = math.Pow(q, nSeg-1)
					}
					if alive >= 0.5 {
						a.cache.set(e.key, seg.b-dt)
					}
				}
				continue
			}
			var miss float64
			if f.cfg.PerFlowBaseline {
				miss = nSeg // exact-match rules: every flow's first packet escalates
			} else {
				last, ok := a.cache.get(e.key)
				live := ok && first-last <= T
				if !live {
					miss = math.Min(nSeg, 1)
				}
				if nSeg > 1 {
					miss += (nSeg - 1) * math.Exp(-Tf*nSeg/segSpan)
				}
				install := f.cfg.Lazy
				if !install {
					_, known := f.known[e.dstID]
					install = known
				}
				if install {
					a.cache.set(e.key, seg.b-dt)
				}
			}
			f.packetIns[seg.bucket] += miss
			if f.cfg.Lazy && seg.preCLIB {
				f.arpRelays[seg.bucket] += miss * float64(f.arpTargets(e.tenant, seg.view, seg.version))
			}
		}
	}
	if !f.cfg.Lazy {
		// Window-granular learning: each directional entry's reverse
		// direction sourced flows from this entry's dst host, so every
		// entry endpoint has escalated (or hit a rule its own earlier
		// escalation installed) by the window's end.
		for i := range a.entries {
			f.known[a.entries[i].dstID] = struct{}{}
		}
	}
}

// bgClass is the background population's classification under one group
// assignment: the probability a background draw's endpoints share a
// switch (local, L-FIB delivery) and a group (local ⊆ group). Both are
// mixtures over the draw law — intraShare of the draws pick a uniform
// tenant then a uniform host pair inside it, the rest a uniform host
// pair — evaluated from the directory's host placement.
type bgClass struct {
	local, group float64
}

// bgClassFor computes (and memoizes per grouping version) the
// background classification under view. A nil view has no groups; its
// entry carries the placement-only local probability.
func (f *Fluid) bgClassFor(view View, version uint64, intraShare float64) bgClass {
	a := f.aggState()
	if view == nil {
		if a.bgNil == nil {
			c := f.bgClassify(nil, intraShare)
			a.bgNil = &c
		}
		return *a.bgNil
	}
	if c, ok := a.bgMemo[version]; ok {
		return c
	}
	if a.bgMemo == nil {
		a.bgMemo = make(map[uint64]bgClass, 8)
	}
	c := f.bgClassify(view, intraShare)
	a.bgMemo[version] = c
	return c
}

func (f *Fluid) bgClassify(view View, intraShare float64) bgClass {
	dir := f.cfg.Directory
	numHosts := dir.NumHosts()
	if numHosts == 0 {
		return bgClass{}
	}
	var keys []uint64
	collision := func(counts map[uint64]int, total int) float64 {
		keys = keys[:0]
		for k := range counts {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var p float64
		t := float64(total)
		for _, k := range keys {
			q := float64(counts[k]) / t
			p += q * q
		}
		return p
	}
	swOf := make(map[uint64]int, 64)
	grOf := make(map[uint64]int, 16)
	// Uniform part: every host, weighted by placement.
	for id := 1; id <= numHosts; id++ {
		h := dir.Host(model.HostID(id))
		if h == nil {
			continue
		}
		swOf[uint64(h.Switch)]++
		if view != nil {
			grOf[uint64(view.GroupOf(h.Switch))]++
		}
	}
	uni := bgClass{local: collision(swOf, numHosts)}
	uni.group = uni.local
	if view != nil {
		uni.group = collision(grOf, numHosts)
	}
	// Intra-tenant part: a uniform eligible tenant, then uniform hosts
	// inside it.
	var intra bgClass
	eligible := 0
	for _, tn := range dir.Tenants() {
		if len(tn.Hosts) < 2 {
			continue
		}
		clear(swOf)
		clear(grOf)
		for _, hid := range tn.Hosts {
			h := dir.Host(hid)
			swOf[uint64(h.Switch)]++
			if view != nil {
				grOf[uint64(view.GroupOf(h.Switch))]++
			}
		}
		l := collision(swOf, len(tn.Hosts))
		intra.local += l
		if view != nil {
			intra.group += collision(grOf, len(tn.Hosts))
		} else {
			intra.group += l
		}
		eligible++
	}
	if eligible == 0 {
		return uni
	}
	intra.local /= float64(eligible)
	intra.group /= float64(eligible)
	return bgClass{
		local: intraShare*intra.local + (1-intraShare)*uni.local,
		group: intraShare*intra.group + (1-intraShare)*uni.group,
	}
}

// bgARPTargets is the expected ARP fan-out of a background draw's
// destination tenant: uniform-tenant weighting for the intra-tenant
// share, host weighting for the uniform share. Only pre-C-LIB-warm
// segments consult it, and the expansion span starts hours later, so
// this stays off every real run's hot path.
func (f *Fluid) bgARPTargets(view View, version uint64, intraShare float64) float64 {
	dir := f.cfg.Directory
	numHosts := dir.NumHosts()
	if view == nil || numHosts == 0 {
		return 0
	}
	var uniform, intra float64
	eligible := 0
	for _, tn := range dir.Tenants() {
		if len(tn.Hosts) == 0 {
			continue
		}
		t := float64(f.arpTargets(tn.ID, view, version))
		uniform += t * float64(len(tn.Hosts)) / float64(numHosts)
		if len(tn.Hosts) >= 2 {
			intra += t
			eligible++
		}
	}
	if eligible > 0 {
		intra /= float64(eligible)
	}
	return intraShare*intra + (1-intraShare)*uniform
}

// FoldBackgroundWindow folds n background flows — independent draws on
// previously silent pairs, as a trace.BackgroundStream counts them —
// for the [from, to) span. Each draw's pair is (almost surely) fresh,
// so no rule ever absorbs a later flow and no installed rule outlives
// its draw usefully: the fold reduces to counting. In-horizon flows
// classify per segment by the group view in force — local delivery
// (skipped), intra-group slow path after G-FIB warm-up (skipped under
// lazy control), everything else a PacketIn — with probabilities
// computed once per grouping version from the directory. Under the
// learning baseline every non-local background flow escalates (its pair
// has no rule); the known-host marking is skipped, since the endpoints
// are existing hosts the foreground population has long since learned.
// Per-flow-baseline mode needs no branch at all: on one-off pairs the
// exact-match and aggregating rule models count identically.
func (f *Fluid) FoldBackgroundWindow(n int, intraShare float64, from, to time.Duration, view View, version uint64) {
	if n <= 0 || to <= from || from >= f.cfg.Horizon {
		return
	}
	a := f.aggState()
	clipTo := to
	if clipTo > f.cfg.Horizon {
		clipTo = f.cfg.Horizon
	}
	nf := float64(n) * float64(clipTo-from) / float64(to-from)
	a.popF += nf
	for _, seg := range f.aggSegments(from, clipTo, view, version) {
		nSeg := nf * seg.frac
		if nSeg <= 0 {
			continue
		}
		c := f.bgClassFor(seg.view, seg.version, intraShare)
		pass := c.local
		if f.cfg.Lazy && seg.postGFIB && seg.view != nil {
			pass = c.group
		}
		miss := nSeg * (1 - pass)
		f.packetIns[seg.bucket] += miss
		if f.cfg.Lazy && seg.preCLIB {
			f.arpRelays[seg.bucket] += miss * f.bgARPTargets(seg.view, seg.version, intraShare)
		}
	}
}
