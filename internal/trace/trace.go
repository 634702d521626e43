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
// the paper's own recipe: p% of flows from a hot set of q% of the
// communicating pairs, the rest uniform over all host pairs, at 10×
// scale.
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
// carries Bytes in Packets packets.
type Flow struct {
	Start   time.Duration
	Src     model.HostID
	Dst     model.HostID
	Bytes   int32
	Packets int16
}

// FlowBytes is the in-memory footprint of one Flow record, the unit of
// the streaming pipeline's peak-memory accounting (the benchmarks'
// peak-B/op metric, tracegen's peak-window figure). A test pins it to
// unsafe.Sizeof(Flow{}).
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

// samplePayload draws a flow size: a heavy-tailed mix of short RPC-like
// flows and occasional bulk transfers, matching data-center flow-size
// measurements.
func samplePayload(rng *rand.Rand) (int32, int16) {
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
	return bytes, packets
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
	// hot set's share of the communicating pool (Table II labels).
	P, Q int
	// Locality splits the communicating pool into an intra-tenant band
	// (clusterable) and a scatter band modeling shared-service traffic:
	// pairs of (service hub, uniformly random host). Hub fan-out pins
	// hub edges across any balanced partition, so scatter flows are
	// structurally inter-group at every scale — the paper's full-scale
	// uniform "rest" flows have the same property through sheer density.
	// The hot set is Q% of the pool, drawn from the intra band.
	Locality float64
	// ScatterFlowFraction is the share of flows placed on the scatter
	// band's fixed pairs. NoiseFraction is the share of flows on pairs
	// drawn uniformly from all host pairs (one-off pairs, as in the
	// paper's synthetic recipe). The remaining
	// 1 − ScatterFlowFraction − NoiseFraction share is split between the
	// hot set (P%) and the cold intra band (100−P%). Scatter and noise
	// are what a balanced partition cannot avoid cutting; their shares
	// are calibrated per preset to reproduce the paper's measured
	// centralities at laptop scale (at the paper's full scale the
	// uniform rest is dense enough to be unclusterable by itself; at
	// reduced scale it degenerates into isolated clusterable edges, so
	// the share is carried by hub pairs instead).
	ScatterFlowFraction float64
	NoiseFraction       float64
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
	Duration   time.Duration
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
	if c.Locality < 0 || c.Locality > 1 {
		return errors.New("trace: Locality must lie in [0,1]")
	}
	if c.ScatterFlowFraction < 0 || c.NoiseFraction < 0 ||
		c.ScatterFlowFraction+c.NoiseFraction > 1+1e-9 {
		return errors.New("trace: ScatterFlowFraction + NoiseFraction must be ≤ 1")
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

	// Pair pools (see Generate's original construction, unchanged in
	// distribution): hot/cold intra-tenant bands, the scatter band, and
	// the Zipf weights + drift phases of the hot set.
	hot, cold, scatter []model.FlowKey
	hotCum             []float64
	hotPhase           []float64
	numHosts           int

	// Flow-class thresholds precomputed from the config.
	scatterCut, noiseCut, hotCut float64

	// noiseSalt hash-splits the all-pairs space when NoiseFraction > 0:
	// noise flows draw only from the half whose salted pair hash is
	// even, so the Expand combinator can place extra flows on the odd
	// half and provably never duplicate a realized one-off noise pair —
	// without either side enumerating the other's realizations.
	noiseSalt uint64
}

// flowSalt separates the per-window flow-emission streams from any
// other consumer of the trace seed.
const flowSalt = 0x5bd1e9955bd1e995

// noiseSplitSalt derives the noise-space partition salt from the trace
// seed (stable across windows and window order).
const noiseSplitSalt = 0x6e6f697365 // "noise"

// pairHash64 folds a canonical flow key into the 64-bit value the
// noise split hashes.
func pairHash64(k model.FlowKey) uint64 {
	k = k.Canonical()
	return uint64(k.Src)<<32 | uint64(k.Dst)
}

// noiseEligible reports whether a pair lies in the generator's noise
// half of the all-pairs space.
func (g *genStream) noiseEligible(k model.FlowKey) bool {
	return splitmix64(pairHash64(k)^g.noiseSalt)&1 == 0
}

// noisePairExcluded implements the Expand combinator's exclusion hook:
// with a noise band configured, any pair the generator could realize
// as one-off noise is off limits for expansion extras.
func (g *genStream) noisePairExcluded(k model.FlowKey) bool {
	return g.cfg.NoiseFraction > 0 && g.noiseEligible(k)
}

// NewStream builds the generator-backed stream for a configuration:
// topology, tenant placement, and communicating-pair pools are
// materialized (they are O(pairs + hosts), independent of trace
// length); flows are not — they are emitted per window by GenWindow.
func NewStream(cfg GeneratorConfig) (Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Duration == 0 {
		cfg.Duration = 24 * time.Hour
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
		cfg:       cfg,
		numHosts:  dir.NumHosts(),
		noiseSalt: splitmix64(cfg.Seed ^ noiseSplitSalt),
	}

	// Communicating pair pool: an intra-tenant band (clusterable) and a
	// scatter band of uniformly random pairs (expander-like).
	seen := make(map[model.FlowKey]struct{}, cfg.CommunicatingPairs)
	tenantIDs := dir.TenantIDs()
	intraCount := int(float64(cfg.CommunicatingPairs) * cfg.Locality)
	scatterCount := cfg.CommunicatingPairs - intraCount
	addPair := func(dst []model.FlowKey, a, b model.HostID) []model.FlowKey {
		if a == b {
			return dst
		}
		k := model.FlowKey{Src: a, Dst: b}.Canonical()
		if _, dup := seen[k]; dup {
			return dst
		}
		seen[k] = struct{}{}
		return append(dst, k)
	}
	intra := make([]model.FlowKey, 0, intraCount)
	for len(intra) < intraCount {
		tn := dir.Tenant(tenantIDs[rng.IntN(len(tenantIDs))])
		if len(tn.Hosts) < 2 {
			continue
		}
		a := tn.Hosts[rng.IntN(len(tn.Hosts))]
		b := tn.Hosts[rng.IntN(len(tn.Hosts))]
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
	// Drift phases: each hot pair's activity is modulated by
	// 1 + A·cos(2π(t−φ)/D) around a per-pair random phase φ.
	if cfg.DriftAmplitude > 0 {
		g.hotPhase = make([]float64, len(g.hot))
		for i := range g.hotPhase {
			g.hotPhase[i] = rng.Float64()
		}
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
	pinWeight := make(map[model.HostID]float64, 2*len(g.hot))
	for r, k := range g.hot {
		w := 1 / float64(r+1)
		pinWeight[k.Src] += w
		pinWeight[k.Dst] += w
	}
	pinExp := cfg.ScatterPinExponent
	if pinExp == 0 {
		pinExp = 1
	}
	if pinExp != 1 {
		for h, w := range pinWeight {
			pinWeight[h] = math.Pow(w, pinExp)
		}
	}
	type tenantPins struct {
		id    model.TenantID
		hosts []model.HostID
		cum   []float64 // cumulative pin weights over hosts
		total float64
	}
	byTenant := make(map[model.TenantID]*tenantPins)
	for h := range pinWeight {
		tid := dir.Host(h).Tenant
		tp := byTenant[tid]
		if tp == nil {
			tp = &tenantPins{id: tid}
			byTenant[tid] = tp
		}
		tp.hosts = append(tp.hosts, h)
	}
	tenants := make([]*tenantPins, 0, len(byTenant))
	for _, tp := range byTenant {
		tenants = append(tenants, tp)
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].id < tenants[j].id })
	tenantCum := make([]float64, len(tenants))
	var tenantTotal float64
	for i, tp := range tenants {
		sort.Slice(tp.hosts, func(a, b int) bool { return tp.hosts[a] < tp.hosts[b] })
		tp.cum = make([]float64, len(tp.hosts))
		for j, h := range tp.hosts {
			tp.total += pinWeight[h]
			tp.cum[j] = tp.total
		}
		tenantTotal += tp.total
		tenantCum[i] = tenantTotal
	}
	sampleTenant := func(rng *rand.Rand) *tenantPins {
		u := rng.Float64() * tenantTotal
		return tenants[sort.SearchFloat64s(tenantCum, u)]
	}
	sampleHost := func(rng *rand.Rand, tp *tenantPins) model.HostID {
		u := rng.Float64() * tp.total
		return tp.hosts[sort.SearchFloat64s(tp.cum, u)]
	}
	g.scatter = make([]model.FlowKey, 0, scatterCount)
	if len(tenants) >= 2 {
		for len(g.scatter) < scatterCount {
			ta, tb := sampleTenant(rng), sampleTenant(rng)
			if ta.id == tb.id {
				continue
			}
			g.scatter = addPair(g.scatter, sampleHost(rng, ta), sampleHost(rng, tb))
		}
	}

	// Flow emission plan: p% hot, ScatterFlowFraction on the scatter
	// band, NoiseFraction uniform over all host pairs, remainder on the
	// cold intra band.
	total := int(cfg.PaperFlows / int64(cfg.Scale))
	if total < 1 {
		total = 1
	}
	g.scatterCut = cfg.ScatterFlowFraction
	g.noiseCut = g.scatterCut + cfg.NoiseFraction
	g.hotCut = g.noiseCut + (1-g.noiseCut)*float64(cfg.P)/100

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
		Duration:       cfg.Duration,
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

// basePairKeys exposes the communicating-pair pool for the Expand
// combinator: every flow the generator emits outside the noise band
// lands on one of these pairs.
func (g *genStream) basePairKeys() map[model.FlowKey]struct{} {
	pool := make(map[model.FlowKey]struct{}, len(g.hot)+len(g.cold)+len(g.scatter))
	for _, band := range [][]model.FlowKey{g.hot, g.cold, g.scatter} {
		for _, k := range band {
			pool[k] = struct{}{}
		}
	}
	return pool
}

// sampleHot draws a hot pair, drift-modulated at time at.
func (g *genStream) sampleHot(rng *rand.Rand, at time.Duration) model.FlowKey {
	for {
		u := rng.Float64() * g.hotCum[len(g.hotCum)-1]
		i := sort.SearchFloat64s(g.hotCum, u)
		if g.hotPhase == nil {
			return g.hot[i]
		}
		frac := float64(at) / float64(g.cfg.Duration)
		mod := (1 + g.cfg.DriftAmplitude*math.Cos(2*math.Pi*(frac-g.hotPhase[i]))) / (1 + g.cfg.DriftAmplitude)
		if rng.Float64() < mod {
			return g.hot[i]
		}
	}
}

// GenWindow implements Stream: window w's flows from the per-window
// random stream, appended into buf and sorted by Start.
func (g *genStream) GenWindow(w int, buf []Flow) []Flow {
	if w < 0 || w >= g.info.Windows {
		return buf
	}
	s1, s2 := windowSeeds(g.cfg.Seed, flowSalt, w)
	rng := rand.New(rand.NewPCG(s1, s2))
	from, to := g.info.WindowBounds(w)
	span := float64(to - from)
	base := len(buf)
	for i := 0; i < g.counts[w]; i++ {
		start := from + time.Duration(rng.Float64()*span)
		var key model.FlowKey
		u := rng.Float64()
		switch {
		case u < g.scatterCut && len(g.scatter) > 0:
			key = g.scatter[rng.IntN(len(g.scatter))]
		case u < g.noiseCut:
			// One-off noise pairs draw from the noise half of the pair
			// space (see noiseEligible); the rejection loop is bounded
			// for degenerate topologies where the half could be empty.
			for tries := 0; ; tries++ {
				a := model.HostID(1 + rng.IntN(g.numHosts))
				b := model.HostID(1 + rng.IntN(g.numHosts))
				if a == b {
					continue
				}
				key = model.FlowKey{Src: a, Dst: b}
				if g.noiseEligible(key) || tries >= 256 {
					break
				}
			}
		case u < g.hotCut || len(g.cold) == 0:
			key = g.sampleHot(rng, start)
		default:
			key = g.cold[rng.IntN(len(g.cold))]
		}
		// Randomize direction.
		if rng.IntN(2) == 0 {
			key = model.FlowKey{Src: key.Dst, Dst: key.Src}
		}
		bytes, packets := samplePayload(rng)
		buf = append(buf, Flow{
			Start:   start,
			Src:     key.Src,
			Dst:     key.Dst,
			Bytes:   bytes,
			Packets: packets,
		})
	}
	win := buf[base:]
	// slices.SortFunc, not sort.Slice: the reflective swapper was the
	// single hottest call of full-scale generation.
	slices.SortFunc(win, func(a, b Flow) int { return cmp.Compare(a.Start, b.Start) })
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
