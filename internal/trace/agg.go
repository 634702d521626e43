package trace

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"lazyctrl/internal/model"
)

// This file is the aggregate (analytic) form of the trace pipeline.
//
// A per-flow window materializes every flow record; at the paper's full
// scale that is 2.7–5.1B records per run, and the five-series Fig. 7
// sweep touches the population three traces × five runs over — no
// per-record pipeline fits a CI budget at that volume. But the replay
// engines' fluid fold never looks at individual flow arrivals beyond
// their (pair, window) placement: the cache model is a function of how
// many flows land on a pair within a window. AggWindow therefore emits
// one (pair, flow-count) cell per active pair per window — O(active
// pairs), not O(flows) — and replay.Fluid.FoldAggWindow consumes it
// with a closed-form per-pair cache model. The expectation-apportioned
// class budgets mirror GenWindow's per-flow classifier exactly, so the
// aggregate form is the per-flow population's expectation, not a new
// workload.
//
// The aggregate form is its own deterministic realization: equal
// (config, seed, window) ⇒ identical cells, but the cells are NOT the
// collapse of GenWindow's flows (the per-flow and aggregate random
// streams are salted apart). Consumers compare the two forms
// statistically — totals exactly, per-pair placement in expectation —
// never record by record.

// PairAgg is one aggregate population cell: Flows flow records between
// Src and Dst (canonical order, both directions combined — the fold
// splits the count evenly) within the window that emitted the cell.
type PairAgg struct {
	Src, Dst model.HostID
	Flows    int32
}

// AggStream is a Stream that can also emit its windows in aggregate
// (pair, count) form. The generator stream and the Expand combinator
// over it implement it; materialized adapters do not (a materialized
// trace is already paid for — fold it per flow).
type AggStream interface {
	Stream
	// AggWindow appends window w's aggregate cells to buf and returns
	// the extended slice. Cell counts sum exactly to the window's flow
	// count. Like GenWindow, it is safe to call concurrently for
	// distinct windows.
	AggWindow(w int, buf []PairAgg) []PairAgg
}

// BackgroundStream is an AggStream whose aggregate windows can separate
// a pair-resolved foreground from a background of independent one-off
// draws. The Expand combinator implements it: its extra flows land on
// fresh, previously silent pairs (ExpandIntraTenantShare of the draws
// inside a uniformly chosen tenant, the rest uniform over all hosts),
// so materializing them as count-1 cells is per-flow work in disguise —
// at paper scale the extras alone are billions of cells. Splitting them
// off lets the fluid fold count the background in closed form (the
// draws are i.i.d., so only their number and mixture matter) while the
// foreground keeps its exact per-pair cells.
type BackgroundStream interface {
	AggStream
	// AggWindowSplit appends window w's foreground cells to buf and
	// returns the extended slice plus the number of background flows in
	// the window. Foreground cells plus background count sum exactly to
	// the window's flow count.
	AggWindowSplit(w int, buf []PairAgg) ([]PairAgg, int)
	// BackgroundSample draws k independent flows from window w's
	// background population (same pair mixture, start span, and payload
	// law as the per-flow form) using the caller's rng — the
	// aggregate-population probe's thinned materialization.
	BackgroundSample(w, k int, rng *rand.Rand) []Flow
}

// SamplePayload draws one flow's packet count from the generators'
// shared flow-size mix. Exported for the aggregate-population probe
// emitter, which materializes the sampled probe flows itself and still
// needs per-flow packet counts for the fast-path latency accounting.
func SamplePayload(rng *rand.Rand) int16 {
	return samplePayload(rng)
}

// aggFlowSalt separates the aggregate emission's per-window random
// streams from the per-flow generator's (and every other consumer's).
const aggFlowSalt = 0xa99a77a99a77a99a

// expandAggSalt is the Expand combinator's aggregate-mode counterpart
// of expandSalt.
const expandAggSalt = 0x0ddc0ffa

// aggDrawFactor selects the per-class emission strategy: a class whose
// window budget is below aggDrawFactor × pool size is emitted by
// per-flow random draws (preserving the multinomial repeat statistics
// the cache model keys on — a cold pair seen twice in one window is a
// different cache story than two pairs seen once); a denser class is
// emitted as its exact expectation apportionment, where the per-pair
// counts are large enough that sampling noise is immaterial.
const aggDrawFactor = 4

// aggScratch is the reusable per-call emission scratch. Pooled because
// AggWindow must stay safe for concurrent distinct-window calls.
type aggScratch struct {
	counts  []int32
	touched []int32
}

var aggScratchPool = sync.Pool{New: func() any { return &aggScratch{} }}

// emitApportioned distributes total flows over a pool proportionally to
// weightAt, deterministically and exactly (cumulative rounding, as in
// apportion). The walk starts at the rotating offset off so the
// rounding residue does not land on the same pairs every window.
func emitApportioned(total int, poolLen, off int, weightAt func(int) float64, emit func(i int, n int32)) {
	if total <= 0 || poolLen == 0 {
		return
	}
	var sum float64
	for i := 0; i < poolLen; i++ {
		sum += weightAt(i)
	}
	if sum <= 0 {
		emit(off%poolLen, int32(total))
		return
	}
	var cum float64
	prev := 0
	for j := 0; j < poolLen; j++ {
		p := j + off
		if p >= poolLen {
			p -= poolLen
		}
		cum += weightAt(p)
		next := int(float64(total)*cum/sum + 0.5)
		if j == poolLen-1 {
			next = total
		}
		if n := next - prev; n > 0 {
			emit(p, int32(n))
		}
		prev = next
	}
}

// emitDrawn distributes total flows by independent per-flow draws,
// binned per pair (first-touch emission order, deterministic under the
// window RNG).
func emitDrawn(total, poolLen int, draw func() int, emit func(i int, n int32)) {
	if total <= 0 || poolLen == 0 {
		return
	}
	sc := aggScratchPool.Get().(*aggScratch)
	if cap(sc.counts) < poolLen {
		sc.counts = make([]int32, poolLen)
	}
	counts := sc.counts[:poolLen]
	touched := sc.touched[:0]
	for j := 0; j < total; j++ {
		i := draw()
		if counts[i] == 0 {
			touched = append(touched, int32(i))
		}
		counts[i]++
	}
	for _, i := range touched {
		emit(int(i), counts[i])
		counts[i] = 0
	}
	sc.touched = touched[:0]
	aggScratchPool.Put(sc)
}

// rotOffset derives a per-window starting offset for the apportionment
// walk (Fibonacci multiplicative hash of the window index).
func rotOffset(w, poolLen int) int {
	if poolLen <= 0 {
		return 0
	}
	return int((uint64(w) * 2654435761) % uint64(poolLen))
}

// AggWindow implements AggStream: window w's flow budget split over the
// flow classes exactly as GenWindow's per-flow classifier splits it in
// expectation, then over each class's pair pool.
func (g *genStream) AggWindow(w int, buf []PairAgg) []PairAgg {
	if w < 0 || w >= g.info.Windows {
		return buf
	}
	count := g.counts[w]
	if count == 0 {
		return buf
	}
	s1, s2 := windowSeeds(g.cfg.Seed, aggFlowSalt, w)
	rng := rand.New(rand.NewPCG(s1, s2))
	from, to := g.info.WindowBounds(w)
	mid := from + (to-from)/2

	// Class shares mirror GenWindow's switch, including the fall-through
	// of an empty scatter pool into the noise band and of an empty cold
	// band into the hot set.
	scatterShare := 0.0
	if len(g.scatter) > 0 {
		scatterShare = g.scatterCut
	}
	noiseShare := g.noiseCut - scatterShare
	hotShare := g.hotCut - g.noiseCut
	coldShare := 1 - g.hotCut
	if len(g.cold) == 0 {
		hotShare += coldShare
		coldShare = 0
	}
	shares := apportion(count, []float64{scatterShare, noiseShare, hotShare, coldShare})
	nScatter, nNoise, nHot, nCold := shares[0], shares[1], shares[2], shares[3]

	emitPair := func(k model.FlowKey, n int32) {
		buf = append(buf, PairAgg{Src: k.Src, Dst: k.Dst, Flows: n})
	}

	// Scatter: uniform over the scatter band.
	if nScatter > 0 {
		if nScatter < aggDrawFactor*len(g.scatter) {
			emitDrawn(nScatter, len(g.scatter),
				func() int { return rng.IntN(len(g.scatter)) },
				func(i int, n int32) { emitPair(g.scatter[i], n) })
		} else {
			emitApportioned(nScatter, len(g.scatter), rotOffset(w, len(g.scatter)),
				func(int) float64 { return 1 },
				func(i int, n int32) { emitPair(g.scatter[i], n) })
		}
	}

	// Noise: one-off pairs from the noise half of the pair space, each a
	// count-1 cell (GenWindow's own rejection loop, minus the payload).
	for j := 0; j < nNoise; j++ {
		var key model.FlowKey
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
		emitPair(key.Canonical(), 1)
	}

	// Hot: Zipf weights, drift-modulated at the window midpoint (the
	// window spans are minutes against a day-period drift, so the
	// midpoint modulation is sampleHot's acceptance rate to first
	// order).
	if nHot > 0 {
		mod := func(i int) float64 { return 1 }
		if g.hotPhase != nil {
			frac := float64(mid) / float64(g.cfg.Duration)
			amp := g.cfg.DriftAmplitude
			mod = func(i int) float64 {
				return (1 + amp*math.Cos(2*math.Pi*(frac-g.hotPhase[i]))) / (1 + amp)
			}
		}
		if nHot < aggDrawFactor*len(g.hot) {
			emitDrawn(nHot, len(g.hot),
				func() int {
					for {
						u := rng.Float64() * g.hotCum[len(g.hotCum)-1]
						i := searchFloat64s(g.hotCum, u)
						if g.hotPhase == nil || rng.Float64() < mod(i) {
							return i
						}
					}
				},
				func(i int, n int32) { emitPair(g.hot[i], n) })
		} else {
			emitApportioned(nHot, len(g.hot), rotOffset(w, len(g.hot)),
				func(i int) float64 { return mod(i) / float64(i+1) },
				func(i int, n int32) { emitPair(g.hot[i], n) })
		}
	}

	// Cold: uniform over the cold intra band. At paper scale the
	// per-pair expectation is O(1) flows per window, so this class runs
	// on the draw path and keeps its multinomial repeats.
	if nCold > 0 {
		if nCold < aggDrawFactor*len(g.cold) {
			emitDrawn(nCold, len(g.cold),
				func() int { return rng.IntN(len(g.cold)) },
				func(i int, n int32) { emitPair(g.cold[i], n) })
		} else {
			emitApportioned(nCold, len(g.cold), rotOffset(w, len(g.cold)),
				func(int) float64 { return 1 },
				func(i int, n int32) { emitPair(g.cold[i], n) })
		}
	}
	return buf
}

// searchFloat64s is sort.SearchFloat64s without the package dependency
// drift — kept local so the draw path's inner loop inlines.
func searchFloat64s(a []float64, x float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// AggWindow implements AggStream for the Expand combinator: the base
// window's cells plus this window's extra flows as count-1 cells on
// previously silent pairs (the same pair-draw loop as the per-flow
// extras, minus start times and payloads). Duplicate pairs within a
// window may emit multiple cells; the fold's per-key aggregation merges
// them. Panics if the base stream cannot emit aggregate windows.
func (e *expandStream) AggWindow(w int, buf []PairAgg) []PairAgg {
	as, ok := e.base.(AggStream)
	if !ok {
		panic("trace: expand base does not support aggregate windows")
	}
	buf = as.AggWindow(w, buf)
	n := e.extraCounts[w]
	if n == 0 {
		return buf
	}
	excl := e.exclusion()
	dir := e.info.Directory
	numHosts := dir.NumHosts()
	tenantIDs := dir.TenantIDs()
	s1, s2 := windowSeeds(e.seed, expandAggSalt, w)
	rng := rand.New(rand.NewPCG(s1, s2))
	for added, tries := 0, 0; added < n; tries++ {
		var a, b model.HostID
		if rng.Float64() < ExpandIntraTenantShare && len(tenantIDs) > 0 {
			tn := dir.Tenant(tenantIDs[rng.IntN(len(tenantIDs))])
			if len(tn.Hosts) < 2 {
				continue
			}
			a = tn.Hosts[rng.IntN(len(tn.Hosts))]
			b = tn.Hosts[rng.IntN(len(tn.Hosts))]
		} else {
			a = model.HostID(1 + rng.IntN(numHosts))
			b = model.HostID(1 + rng.IntN(numHosts))
		}
		if a == b {
			continue
		}
		key := model.FlowKey{Src: a, Dst: b}.Canonical()
		if _, dup := excl[key]; dup {
			continue
		}
		if e.noiseExcl != nil && e.noiseExcl(key) && tries < 256 {
			continue
		}
		buf = append(buf, PairAgg{Src: key.Src, Dst: key.Dst, Flows: 1})
		added++
		tries = -1
	}
	return buf
}

// AggWindowSplit implements BackgroundStream: the base's cells as
// foreground (recursing through stacked expansions) and this window's
// extra flows as the background count.
func (e *expandStream) AggWindowSplit(w int, buf []PairAgg) ([]PairAgg, int) {
	if bs, ok := e.base.(BackgroundStream); ok {
		cells, bg := bs.AggWindowSplit(w, buf)
		return cells, bg + e.extraCounts[w]
	}
	as, ok := e.base.(AggStream)
	if !ok {
		panic("trace: expand base does not support aggregate windows")
	}
	return as.AggWindow(w, buf), e.extraCounts[w]
}

// BackgroundSample implements BackgroundStream: k independent draws
// from the window's extra-flow population — the same silent-pair
// mixture, start span, and payload law as GenWindow's extras, but under
// the caller's rng (the probe thins the background, so its draws are a
// uniform subsample of an i.i.d. population either way).
func (e *expandStream) BackgroundSample(w, k int, rng *rand.Rand) []Flow {
	if k <= 0 || e.extraCounts[w] == 0 {
		return nil
	}
	excl := e.exclusion()
	dir := e.info.Directory
	numHosts := dir.NumHosts()
	tenantIDs := dir.TenantIDs()
	wFrom, wTo := e.info.WindowBounds(w)
	spanFrom, spanTo := max(wFrom, e.from), min(wTo, e.to)
	span := float64(spanTo - spanFrom)
	out := make([]Flow, 0, k)
	for added, tries := 0, 0; added < k; tries++ {
		var a, b model.HostID
		if rng.Float64() < ExpandIntraTenantShare && len(tenantIDs) > 0 {
			tn := dir.Tenant(tenantIDs[rng.IntN(len(tenantIDs))])
			if len(tn.Hosts) < 2 {
				continue
			}
			a = tn.Hosts[rng.IntN(len(tn.Hosts))]
			b = tn.Hosts[rng.IntN(len(tn.Hosts))]
		} else {
			a = model.HostID(1 + rng.IntN(numHosts))
			b = model.HostID(1 + rng.IntN(numHosts))
		}
		if a == b {
			continue
		}
		key := model.FlowKey{Src: a, Dst: b}.Canonical()
		if _, dup := excl[key]; dup {
			continue
		}
		if e.noiseExcl != nil && e.noiseExcl(key) && tries < 256 {
			continue
		}
		packets := samplePayload(rng)
		out = append(out, Flow{
			Start:   spanFrom + time.Duration(rng.Float64()*span),
			Src:     a,
			Dst:     b,
			Packets: packets,
		})
		added++
		tries = -1
	}
	return out
}
