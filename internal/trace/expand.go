package trace

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"lazyctrl/internal/model"
)

// expandSalt separates the combinator's per-window random streams from
// the base generator's.
const expandSalt = 0x0ddc0ffee

// ExpandIntraTenantShare is the fraction of the expansion's extra flows
// that connect previously silent pairs within a (uniformly chosen)
// tenant; the rest are uniform over all host pairs. Exported so the
// aggregate-population fold can classify the background analytically
// with the same mixture.
const ExpandIntraTenantShare = 0.7

// expandStream lays extra flows among previously silent pairs on top
// of a generator stream, window by window: each base window is
// generated by the base, the window's apportioned share of the extra
// flows is emitted from an independent (seed, window) random stream,
// and the merged window is re-sorted. Memory stays O(window): the
// silent-pair exclusion is the base's pool set.
type expandStream struct {
	base *genStream
	info StreamInfo
	seed uint64
	// winFrom/winTo clip each window's extra flows to the injection
	// span; extraCounts is the deterministic apportionment of the extra
	// flows over the windows, proportional to overlap length (the extra
	// flows are uniform in time, not diurnal — newly deployed
	// applications, not the base load shape).
	from, to    time.Duration
	extraCounts []int
}

// ExpandStream produces the paper's "expanded" trace (§V-D) as a
// stream combinator: a generator stream (NewStream) plus extraFraction
// (0.30) additional flows among host pairs that did NOT communicate in
// the base trace, injected uniformly during [fromHour, toHour) (8–24).
// Most new communication appears within tenants (applications growing
// inside their slices); the rest is uniform across the data center.
// The extra flows keep breaking traffic skewness over time, forcing
// grouping updates.
//
// "Previously silent" is judged against the generator's communicating
// pool, where every flow lands, so the pool set is the whole exclusion.
// Any other base — a materialized trace's Stream, or another expansion —
// is refused: expansions do not stack.
func ExpandStream(base Stream, extraFraction float64, fromHour, toHour int, seed uint64) (Stream, error) {
	if extraFraction <= 0 {
		return nil, errors.New("trace: extraFraction must be positive")
	}
	if fromHour < 0 || toHour > 24 || fromHour >= toHour {
		return nil, fmt.Errorf("trace: invalid hour window [%d,%d)", fromHour, toHour)
	}
	g, ok := base.(*genStream)
	if !ok {
		return nil, errors.New("trace: expand base must be a generator stream")
	}
	info := g.info
	hourLen := info.Duration / 24
	e := &expandStream{
		base: g,
		seed: seed,
		from: time.Duration(fromHour) * hourLen,
		to:   time.Duration(toHour) * hourLen,
	}
	extra := int(float64(info.TotalFlows) * extraFraction)
	weights := make([]float64, info.Windows)
	for w := range weights {
		wFrom, wTo := info.WindowBounds(w)
		weights[w] = float64(overlap(wFrom, wTo, e.from, e.to))
	}
	e.extraCounts = apportion(extra, weights)

	info.Name += "-expanded"
	info.TotalFlows += extra
	info.MaxWindowFlows = 0
	for w, n := range e.extraCounts {
		info.MaxWindowFlows = max(info.MaxWindowFlows, g.counts[w]+n)
	}
	e.info = info
	return e, nil
}

func overlap(aFrom, aTo, bFrom, bTo time.Duration) time.Duration {
	from, to := max(aFrom, bFrom), min(aTo, bTo)
	if to <= from {
		return 0
	}
	return to - from
}

// Info implements Stream.
func (e *expandStream) Info() StreamInfo { return e.info }

// drawExtraPair draws the pair of one extra flow, in draw order:
// ExpandIntraTenantShare of the draws inside a uniformly chosen tenant,
// the rest uniform over all hosts, never a pair of the base's pool.
func (e *expandStream) drawExtraPair(rng *rand.Rand) (a, b model.HostID) {
	dir := e.info.Directory
	tenants := dir.Tenants()
	for {
		if rng.Float64() < ExpandIntraTenantShare && len(tenants) > 0 {
			hosts := tenants[rng.IntN(len(tenants))].Hosts
			if len(hosts) < 2 {
				continue
			}
			a = hosts[rng.IntN(len(hosts))]
			b = hosts[rng.IntN(len(hosts))]
		} else {
			a = model.HostID(1 + rng.IntN(dir.NumHosts()))
			b = model.HostID(1 + rng.IntN(dir.NumHosts()))
		}
		if a != b && !e.base.pool.has(model.FlowKey{Src: a, Dst: b}) {
			return a, b
		}
	}
}

// appendExtras appends k extra flows of window w, drawn from rng: a
// pair, a payload, then a start uniform over the window's part of the
// injection span.
func (e *expandStream) appendExtras(out []Flow, w, k int, rng *rand.Rand) []Flow {
	wFrom, wTo := e.info.WindowBounds(w)
	spanFrom, spanTo := max(wFrom, e.from), min(wTo, e.to)
	span := float64(spanTo - spanFrom)
	for range k {
		a, b := e.drawExtraPair(rng)
		packets := SamplePayload(rng)
		out = append(out, Flow{
			Start:   spanFrom + time.Duration(rng.Float64()*span),
			Src:     a,
			Dst:     b,
			Packets: packets,
		})
	}
	return out
}

// drawWindow is the base window plus this window's share of the extra
// flows, in draw order.
func (e *expandStream) drawWindow(w int, buf []Flow) []Flow {
	out := e.base.drawWindow(w, buf)
	if e.extraCounts[w] == 0 {
		return out
	}
	return e.appendExtras(out, w, e.extraCounts[w], WindowRand(e.seed, expandSalt, w))
}

// GenWindow implements Stream: the base window plus this window's
// share of the extra flows, merged and sorted.
func (e *expandStream) GenWindow(w int, buf []Flow) []Flow {
	start := len(buf)
	out := e.base.GenWindow(w, buf)
	if e.extraCounts[w] == 0 {
		return out
	}
	out = e.appendExtras(out, w, e.extraCounts[w], WindowRand(e.seed, expandSalt, w))
	win := out[start:]
	slices.SortFunc(win, func(a, b Flow) int { return cmp.Compare(a.Start, b.Start) })
	return out
}
