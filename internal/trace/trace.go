// Package trace models data-center traffic traces: the flow records the
// LazyCtrl evaluation replays, generators reproducing the paper's
// datasets (§V-B, Table II), and the analysis routines (centrality,
// locality, switch-pair intensity) behind the motivation section and
// every figure.
//
// The paper's "real" trace is proprietary; RealLike synthesizes a trace
// from its published statistics (272 switches, 6509 hosts, ~11.6k
// communicating pairs out of >20M, 90% of flows from 10% of pairs,
// 5-way centrality ≈ 0.85, day-long diurnal profile). Syn-A/B/C follow
// the paper's own recipe at 10× scale: p% of flows from a hot set of q%
// of the communicating pairs, the rest unclusterable — carried by
// scatter hub pairs rather than uniform one-off pairs (see
// GeneratorConfig.ScatterFlowFraction).
//
// Traces are produced as streams (see stream.go): the topology and
// communicating-pair pools are built once and shared read-only, while
// flows are emitted one time window at a time from a per-window random
// stream, so generation memory is flat in trace length. Generate is
// the materialized form — NewStream followed by Materialize.
package trace

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/tenant"
)

// Flow is one flow record: the first packet arrives at Start; the flow
// is Packets packets long.
type Flow struct {
	Start   time.Duration
	Src     model.HostID
	Dst     model.HostID
	Packets int16
}

// FlowBytes is the in-memory footprint of one Flow record, the unit of
// the streaming pipeline's peak-memory accounting (the benchmarks'
// peak-B/op metric, TestSynAFullScaleStream's peak-window figure). A
// test pins it to unsafe.Sizeof(Flow{}).
const FlowBytes = 24

// Trace is a complete traffic trace plus the topology it runs over.
type Trace struct {
	Name string
	// Duration is the trace span (24h for all paper traces).
	Duration time.Duration
	// Flows are sorted by Start.
	Flows []Flow
	// Directory holds tenants, hosts, and host→switch placement.
	Directory *tenant.Directory
	// P and Q are the Table II parameters (zero for the real-like trace).
	P, Q int
	// Scale is the divisor applied to the paper's flow count.
	Scale int
}

// NumFlows returns the number of flow records.
func (t *Trace) NumFlows() int { return len(t.Flows) }

// Window returns the flows with Start in [from, to), which are
// contiguous because flows are sorted.
func (t *Trace) Window(from, to time.Duration) []Flow {
	lo := sort.Search(len(t.Flows), func(i int) bool { return t.Flows[i].Start >= from })
	hi := sort.Search(len(t.Flows), func(i int) bool { return t.Flows[i].Start >= to })
	return t.Flows[lo:hi]
}

// hourWeights is the diurnal load profile used by all generators: a
// production-DC shape with a night trough and business-hour plateau
// rising to an evening peak.
var hourWeights = [24]float64{
	0.45, 0.38, 0.34, 0.32, 0.33, 0.40, // 00–05
	0.55, 0.75, 0.95, 1.10, 1.20, 1.25, // 06–11
	1.22, 1.18, 1.20, 1.25, 1.30, 1.35, // 12–17
	1.40, 1.38, 1.25, 1.00, 0.75, 0.55, // 18–23
}

// SamplePayload draws a flow size — a heavy-tailed mix of short
// RPC-like flows and occasional bulk transfers, matching data-center
// flow-size measurements — and returns its packet count. Every draw the
// byte size takes is made, so the stream behind it does not move. The
// aggregate-population probe emitter calls it for the flows it
// materializes itself.
func SamplePayload(rng *rand.Rand) int16 {
	u := rng.Float64()
	var bytes int32
	switch {
	case u < 0.70: // mice
		bytes = int32(200 + rng.IntN(2000))
	case u < 0.95: // medium
		bytes = int32(4_000 + rng.IntN(60_000))
	default: // elephants
		bytes = int32(100_000 + rng.IntN(1_900_000))
	}
	packets := int16(bytes/1400 + 1)
	if packets > 64 {
		packets = 64
	}
	return packets
}

// GeneratorConfig drives synthetic trace generation. Presets (RealLike,
// SynA/B/C) fill it with the paper's parameters.
type GeneratorConfig struct {
	Name     string
	Switches int
	Tenants  int
	// MinVMs/MaxVMs bound tenant sizes (paper: 20–100).
	MinVMs, MaxVMs int
	// PaperFlows is the unscaled flow count of the dataset; the
	// generator emits PaperFlows/Scale flows.
	PaperFlows int64
	Scale      int
	// CommunicatingPairs is the size of the communicating pair pool.
	CommunicatingPairs int
	// P is the percentage of flows drawn from the hot pair set; Q is the
	// hot set's share of the communicating pool (Table II labels). The
	// hot set is drawn from the intra-tenant band (see locality).
	P, Q int
	// ScatterFlowFraction is the share of flows placed on the scatter
	// band's fixed pairs; the rest is split between the hot set (P%) and
	// the cold intra band (100−P%). Scatter is what a balanced partition
	// cannot avoid cutting. It stands in for the paper's synthetic
	// recipe, whose non-hot flows are uniform over all host pairs: at
	// the paper's full scale that uniform rest is dense enough to be
	// unclusterable by itself, but at reduced scale it degenerates into
	// isolated clusterable edges, so the share is carried by hub pairs
	// instead, calibrated per preset to reproduce the paper's measured
	// centralities. NewStream refuses a positive share whose scatter
	// band is empty (a hot set pinning fewer than two tenants).
	ScatterFlowFraction float64
	// ScatterPinExponent damps the coupling between scatter endpoints
	// and hot-pair pin weight: endpoints are sampled ∝ pinWeight^exp.
	// 1.0 pins scatter to the traffic core (right for the huge hot sets
	// of the synthetic traces); 0.5 spreads it to the mid-tier (right
	// for the compact hot set of the real trace, whose heaviest pairs
	// would otherwise be woven into an unclusterable core). Zero
	// defaults to 1.0.
	ScatterPinExponent float64
	// DriftAmplitude in [0,1) makes each hot pair wax and wane over the
	// day around a random phase, so the traffic pattern drifts and a
	// grouping computed from the first hour degrades over time (the
	// effect behind the static-vs-dynamic gap in Fig. 7). Zero disables
	// drift.
	DriftAmplitude float64
	// Colocation is passed to tenant placement.
	Colocation float64
	Seed       uint64
	// WindowsPerHour sets the streaming granularity: the trace is
	// partitioned into 24·WindowsPerHour windows. Zero selects the
	// smallest count that keeps the expected window under
	// targetWindowFlows (at least 1), so the per-window buffer stays a
	// few MB no matter how long the trace is. The window count is part
	// of the trace identity: equal (config, seed) ⇒ identical flows,
	// window by window.
	WindowsPerHour int
}

// locality splits the communicating pool into an intra-tenant band
// (clusterable) and a scatter band modeling shared-service traffic:
// pairs of (service hub, uniformly random host). Hub fan-out pins hub
// edges across any balanced partition, so scatter flows are
// structurally inter-group at every scale — the paper's full-scale
// uniform "rest" flows have the same property through sheer density.
const locality = 0.80

// targetWindowFlows is the auto-selected per-window flow budget: 64 Ki
// flows ≈ 1.5 MB of Flow records.
const targetWindowFlows = 1 << 16

// maxWindowsPerHour caps the window count (the per-window fixed costs —
// seeding, sorting dispatch — must stay negligible); beyond the cap
// windows simply grow past the target.
const maxWindowsPerHour = 4096

func (c GeneratorConfig) validate() error {
	if c.Switches < 2 {
		return errors.New("trace: need ≥ 2 switches")
	}
	if c.Tenants < 1 || c.MinVMs < 2 || c.MaxVMs < c.MinVMs {
		return errors.New("trace: invalid tenant sizing")
	}
	if c.Scale < 1 {
		return errors.New("trace: Scale must be ≥ 1")
	}
	if c.PaperFlows < 1 {
		return errors.New("trace: PaperFlows must be ≥ 1")
	}
	if c.P < 0 || c.P > 100 || c.Q < 0 || c.Q > 100 {
		return errors.New("trace: P and Q are percentages")
	}
	if c.CommunicatingPairs < 2 {
		return errors.New("trace: need ≥ 2 communicating pairs")
	}
	if c.ScatterFlowFraction < 0 || c.ScatterFlowFraction > 1 {
		return errors.New("trace: ScatterFlowFraction must lie in [0,1]")
	}
	if c.DriftAmplitude < 0 || c.DriftAmplitude >= 1 {
		return errors.New("trace: DriftAmplitude must lie in [0,1)")
	}
	if c.WindowsPerHour < 0 || c.WindowsPerHour > maxWindowsPerHour {
		return fmt.Errorf("trace: WindowsPerHour must lie in [0,%d]", maxWindowsPerHour)
	}
	return nil
}

// genStream is the generator-backed Stream: the topology and pair
// pools built once at construction (read-only from then on), flow
// counts apportioned per window, and a per-window random stream for
// emission. GenWindow is safe to call concurrently for distinct
// windows.
type genStream struct {
	cfg  GeneratorConfig
	info StreamInfo
	// counts is the deterministic per-window flow apportionment over
	// the diurnal profile.
	counts []int

	// Pair pools: hot/cold intra-tenant bands, the scatter band, and the
	// Zipf weights + drift phases of the hot set.
	hot, cold, scatter []model.FlowKey
	hotCum             []float64
	hotPhase           []float64
	// pool holds every pair of the three bands: NewStream's dedupe, and
	// the Expand combinator's silent-pair exclusion afterwards.
	pool pairSet

	// hotGuide narrows drawHot's search of hotCum: hotGuide[b] is the
	// first index whose hotCum entry falls in bucket b or above (see
	// hotBucket), for b = 0 … len(hotCum)+1.
	hotGuide []int32
	hotScale float64
	// hotFloor is the least drift modulation, (1−A)/(1+A): a draw below
	// it keeps its pair whatever the cosine.
	hotFloor float64

	// Flow-class thresholds precomputed from the config.
	scatterCut, hotCut float64
}

// flowSalt separates the per-window flow-emission streams from any
// other consumer of the trace seed.
const flowSalt = 0x5bd1e9955bd1e995

// packPair folds a flow key's canonical form into one word, Src in the
// high half: the value pairSet stores. Host IDs start at 1, so a packed
// pair is never 0.
func packPair(k model.FlowKey) uint64 {
	k = k.Canonical()
	return uint64(k.Src)<<32 | uint64(k.Dst)
}

// pairSet is a set of undirected pairs: an open-addressing table of
// packed pairs, 0 marking an empty slot, with linear probing from a
// Fibonacci hash. newPairSet(n) sizes it to a power of two of at least
// 2n slots, so up to n pairs keep it at most half full; inserting more
// is the caller's error (a full table would probe forever).
type pairSet struct {
	slots []uint64
	shift uint // 64 − log2(len(slots)): keeps the hash's top bits
}

func newPairSet(n int) pairSet {
	b := 1
	for 1<<b < 2*n {
		b++
	}
	return pairSet{slots: make([]uint64, 1<<b), shift: uint(64 - b)}
}

// find returns the slot holding k's pair, or the empty slot where it
// would go, and its packed value.
func (s *pairSet) find(k model.FlowKey) (int, uint64) {
	v := packPair(k)
	mask := len(s.slots) - 1
	i := int((v * 0x9e3779b97f4a7c15) >> s.shift)
	for s.slots[i] != v && s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i, v
}

// has reports whether k's pair, in either direction, is in the set.
func (s *pairSet) has(k model.FlowKey) bool {
	i, _ := s.find(k)
	return s.slots[i] != 0
}

// insert adds k's pair and reports whether it was new.
func (s *pairSet) insert(k model.FlowKey) (added bool) {
	i, v := s.find(k)
	if s.slots[i] != 0 {
		return false
	}
	s.slots[i] = v
	return true
}

// NewStream builds the generator-backed stream for a configuration:
// topology, tenant placement, and communicating-pair pools are
// materialized (they are O(pairs + hosts), independent of trace
// length); flows are not — they are emitted per window by GenWindow.
// A configuration whose bands cannot be filled with distinct pairs is
// refused: an intra band larger than the tenants' pairs, a scatter band
// larger than the pinned tenants' cross pairs, or a positive
// ScatterFlowFraction with no scatter band at all.
func NewStream(cfg GeneratorConfig) (Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5bd1e9955bd1e995))

	// Topology: tenants and placement.
	switches := make([]model.SwitchID, cfg.Switches)
	for i := range switches {
		switches[i] = model.SwitchID(i + 1)
	}
	dir := tenant.NewDirectory(switches)
	if err := dir.Populate(tenant.PopulateConfig{
		Tenants:    cfg.Tenants,
		MinVMs:     cfg.MinVMs,
		MaxVMs:     cfg.MaxVMs,
		Colocation: cfg.Colocation,
		Seed:       cfg.Seed ^ 0xabcdef,
	}); err != nil {
		return nil, fmt.Errorf("trace: populate: %w", err)
	}
	g := &genStream{
		cfg: cfg,
		// The bands below stop at CommunicatingPairs pairs in all.
		pool: newPairSet(cfg.CommunicatingPairs),
	}

	// Communicating pair pool: an intra-tenant band (clusterable) and a
	// scatter band of uniformly random pairs (expander-like).
	tenants := dir.Tenants()
	intraCount := int(float64(cfg.CommunicatingPairs) * locality)
	scatterCount := cfg.CommunicatingPairs - intraCount
	addPair := func(dst []model.FlowKey, a, b model.HostID) []model.FlowKey {
		if a == b {
			return dst
		}
		k := model.FlowKey{Src: a, Dst: b}.Canonical()
		if !g.pool.insert(k) {
			return dst
		}
		return append(dst, k)
	}
	// The tenants hold Σ C(nₜ, 2) distinct intra-tenant pairs: a larger
	// band could never be filled.
	intraPairs := 0
	for _, tn := range tenants {
		intraPairs += len(tn.Hosts) * (len(tn.Hosts) - 1) / 2
	}
	if intraPairs < intraCount {
		return nil, fmt.Errorf("trace: %d intra-tenant pairs wanted, the tenants hold %d", intraCount, intraPairs)
	}
	intra := make([]model.FlowKey, 0, intraCount)
	for len(intra) < intraCount {
		hosts := tenants[rng.IntN(len(tenants))].Hosts
		if len(hosts) < 2 {
			continue
		}
		a := hosts[rng.IntN(len(hosts))]
		b := hosts[rng.IntN(len(hosts))]
		intra = addPair(intra, a, b)
	}
	rng.Shuffle(len(intra), func(i, j int) { intra[i], intra[j] = intra[j], intra[i] })

	hotCount := cfg.CommunicatingPairs * cfg.Q / 100
	if hotCount < 1 {
		hotCount = 1
	}
	if hotCount > len(intra) {
		hotCount = len(intra)
	}
	g.hot = intra[:hotCount]
	g.cold = intra[hotCount:]

	// Zipf(1) weights within the hot set: the heaviest communicating
	// pairs dominate, as in the real trace ("over 90% of the flows are
	// contributed by about 10% of the host pairs").
	g.hotCum = make([]float64, len(g.hot))
	acc := 0.0
	for i := range g.hot {
		acc += 1 / float64(i+1)
		g.hotCum[i] = acc
	}
	g.initHotGuide()
	// Drift phases: each hot pair's activity is modulated by
	// 1 + A·cos(2π(t−φ)/D) around a per-pair random phase φ.
	if cfg.DriftAmplitude > 0 {
		g.hotPhase = make([]float64, len(g.hot))
		for i := range g.hotPhase {
			g.hotPhase[i] = rng.Float64()
		}
		g.hotFloor = (1 - cfg.DriftAmplitude) / (1 + cfg.DriftAmplitude)
	}

	// Scatter band: cross-tenant service dependencies between uniformly
	// random tenant pairs, with endpoints drawn from hosts pinned by
	// heavy hot-pair traffic. At the tenant level this is a random
	// (expander) graph, so no balanced partition can co-locate more than
	// a small fraction of the dependent tenant pairs — the scatter flows
	// are structurally inter-group at every scale, mirroring the effect
	// of the paper's full-scale uniform "rest" flows, whose sheer
	// density makes them equally unclusterable.
	// Pin weight of a host: its expected hot-flow volume under the Zipf
	// ranking. Scatter endpoints are sampled proportionally to
	// pinWeight^ScatterPinExponent: strong enough that no host (or
	// tenant block) profitably flips groups to dodge scatter edges,
	// damped enough that the heaviest hot pairs do not get woven into a
	// single unclusterable core whose split would cut hot traffic as
	// well.
	// Populate numbers hosts 1..NumHosts, each tenant's consecutively,
	// so the weights are a slice indexed by host ID, and walking tenants
	// in Tenants order and their hosts in list order visits the pinned
	// hosts by ascending tenant, then host ID.
	pinWeight := make([]float64, dir.NumHosts()+1)
	for r, k := range g.hot {
		w := 1 / float64(r+1)
		pinWeight[k.Src] += w
		pinWeight[k.Dst] += w
	}
	pinExp := cfg.ScatterPinExponent
	if pinExp == 0 {
		pinExp = 1
	}
	type tenantPins struct {
		id    model.TenantID
		hosts []model.HostID
		cum   []float64 // cumulative pin weights over hosts
		total float64
	}
	pinned := make([]tenantPins, 0, len(tenants))
	tenantCum := make([]float64, 0, len(tenants))
	var tenantTotal float64
	pinnedSq := 0 // Σ|Pₜ|² over pinned tenants
	pinnedHosts := make([]model.HostID, 0, 2*len(g.hot))
	hostCum := make([]float64, 0, 2*len(g.hot))
	for _, tn := range tenants {
		first := len(pinnedHosts)
		var total float64
		for _, h := range tn.Hosts {
			w := pinWeight[h]
			if w == 0 {
				continue
			}
			if pinExp != 1 {
				w = math.Pow(w, pinExp)
			}
			total += w
			pinnedHosts = append(pinnedHosts, h)
			hostCum = append(hostCum, total)
		}
		if len(pinnedHosts) == first {
			continue
		}
		pinned = append(pinned, tenantPins{tn.ID, pinnedHosts[first:], hostCum[first:], total})
		pinnedSq += (len(pinnedHosts) - first) * (len(pinnedHosts) - first)
		tenantTotal += total
		tenantCum = append(tenantCum, tenantTotal)
	}
	sampleTenant := func(rng *rand.Rand) *tenantPins {
		u := rng.Float64() * tenantTotal
		return &pinned[searchFloat64s(tenantCum, u)]
	}
	sampleHost := func(rng *rand.Rand, tp *tenantPins) model.HostID {
		u := rng.Float64() * tp.total
		return tp.hosts[searchFloat64s(tp.cum, u)]
	}
	// The pinned hosts offer ((Σ|Pₜ|)² − Σ|Pₜ|²)/2 distinct cross-tenant
	// pairs: a larger band could never be filled.
	crossPairs := (len(pinnedHosts)*len(pinnedHosts) - pinnedSq) / 2
	switch {
	case len(pinned) < 2 && cfg.ScatterFlowFraction > 0:
		return nil, errors.New("trace: the hot set pins fewer than two tenants, so the scatter band is empty")
	case len(pinned) >= 2 && crossPairs < scatterCount:
		return nil, fmt.Errorf("trace: %d scatter pairs wanted, the pinned tenants hold %d", scatterCount, crossPairs)
	}
	g.scatter = make([]model.FlowKey, 0, scatterCount)
	if len(pinned) >= 2 {
		for len(g.scatter) < scatterCount {
			ta, tb := sampleTenant(rng), sampleTenant(rng)
			if ta.id == tb.id {
				continue
			}
			g.scatter = addPair(g.scatter, sampleHost(rng, ta), sampleHost(rng, tb))
		}
	}

	// Flow emission plan: ScatterFlowFraction on the scatter band, p%
	// of the rest hot, the remainder on the cold intra band.
	total := int(cfg.PaperFlows / int64(cfg.Scale))
	if total < 1 {
		total = 1
	}
	g.scatterCut = cfg.ScatterFlowFraction
	g.hotCut = g.scatterCut + (1-g.scatterCut)*float64(cfg.P)/100

	// Window plan: 24·WindowsPerHour hour-aligned windows, flow counts
	// apportioned deterministically over the diurnal profile (each
	// window inherits its hour's weight). The apportionment replaces
	// the sequential sampler's multinomial hour draw with its exact
	// expectation, which is what lets any window be generated without
	// its predecessors.
	wph := cfg.WindowsPerHour
	if wph == 0 {
		wph = (total + 24*targetWindowFlows - 1) / (24 * targetWindowFlows)
		if wph < 1 {
			wph = 1
		}
		if wph > maxWindowsPerHour {
			wph = maxWindowsPerHour
		}
	}
	windows := 24 * wph
	weights := make([]float64, windows)
	for w := range weights {
		weights[w] = hourWeights[w/wph]
	}
	g.counts = apportion(total, weights)

	g.info = StreamInfo{
		Name:           cfg.Name,
		Duration:       TraceDuration,
		Directory:      dir,
		P:              cfg.P,
		Q:              cfg.Q,
		Scale:          cfg.Scale,
		Windows:        windows,
		TotalFlows:     total,
		MaxWindowFlows: maxInts(g.counts),
	}
	return g, nil
}

// Info implements Stream.
func (g *genStream) Info() StreamInfo { return g.info }

// initHotGuide builds hotGuide over hotCum.
func (g *genStream) initHotGuide() {
	k := len(g.hotCum)
	g.hotScale = float64(k) / g.hotCum[k-1]
	g.hotGuide = make([]int32, k+2)
	i := 0
	for b := range g.hotGuide {
		for i < k && g.hotBucket(g.hotCum[i]) < b {
			i++
		}
		g.hotGuide[b] = int32(i)
	}
}

// hotBucket maps a point of [0, hotCum's total] to one of len(hotCum)+1
// buckets. It is monotone: a multiplication, a truncation and a clamp,
// each non-decreasing.
func (g *genStream) hotBucket(x float64) int {
	return min(int(x*g.hotScale), len(g.hotCum))
}

// hotIndex is searchFloat64s(g.hotCum, u), searched between two guide
// entries. hotBucket is monotone, so every entry before
// hotGuide[hotBucket(u)] lies below u and every entry from
// hotGuide[hotBucket(u)+1] on lies above it: the answer is in between.
func (g *genStream) hotIndex(u float64) int {
	b := g.hotBucket(u)
	lo, hi := int(g.hotGuide[b]), int(g.hotGuide[b+1])
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.hotCum[m] < u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// drawHot draws the index of a hot pair by its Zipf weight and, under
// drift, keeps it with probability mod, its modulation at day fraction
// frac (a rejection loop). A draw r below hotFloor keeps the pair
// without taking the cosine: the modulation's additions, multiplication
// and division are each monotone in the cosine and give exactly
// hotFloor at cos = −1, so no mod lies below hotFloor and r < hotFloor
// already decides r < mod.
func (g *genStream) drawHot(rng *rand.Rand, frac float64) int {
	for {
		i := g.hotIndex(rng.Float64() * g.hotCum[len(g.hotCum)-1])
		if g.hotPhase == nil {
			return i
		}
		r := rng.Float64()
		if r < g.hotFloor {
			return i
		}
		amp := g.cfg.DriftAmplitude
		if r < (1+amp*math.Cos(2*math.Pi*(frac-g.hotPhase[i])))/(1+amp) {
			return i
		}
	}
}

// GenWindow implements Stream: drawWindow's flows sorted by Start.
func (g *genStream) GenWindow(w int, buf []Flow) []Flow {
	base := len(buf)
	buf = g.drawWindow(w, buf)
	// slices.SortFunc, not sort.Slice: the reflective swapper was the
	// single hottest call of full-scale generation.
	slices.SortFunc(buf[base:], func(a, b Flow) int { return cmp.Compare(a.Start, b.Start) })
	return buf
}

// drawWindow appends window w's flows from the per-window random
// stream into buf, in draw order.
func (g *genStream) drawWindow(w int, buf []Flow) []Flow {
	if w < 0 || w >= g.info.Windows {
		return buf
	}
	rng := WindowRand(g.cfg.Seed, flowSalt, w)
	from, to := g.info.WindowBounds(w)
	span := float64(to - from)
	for i := 0; i < g.counts[w]; i++ {
		start := from + time.Duration(rng.Float64()*span)
		var key model.FlowKey
		u := rng.Float64()
		switch {
		case u < g.scatterCut:
			key = g.scatter[rng.IntN(len(g.scatter))]
		case u < g.hotCut || len(g.cold) == 0:
			key = g.hot[g.drawHot(rng, float64(start)/float64(TraceDuration))]
		default:
			key = g.cold[rng.IntN(len(g.cold))]
		}
		// Randomize direction.
		if rng.IntN(2) == 0 {
			key = model.FlowKey{Src: key.Dst, Dst: key.Src}
		}
		packets := SamplePayload(rng)
		buf = append(buf, Flow{
			Start:   start,
			Src:     key.Src,
			Dst:     key.Dst,
			Packets: packets,
		})
	}
	return buf
}

// Generate produces a materialized trace from the configuration: the
// stream's windows collected into one flow slice. Large-scale
// consumers should use NewStream directly and stay windowed.
func Generate(cfg GeneratorConfig) (*Trace, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	return Materialize(s), nil
}
