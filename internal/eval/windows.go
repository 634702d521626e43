package eval

import (
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/replay"
	"lazyctrl/internal/rig"
	"lazyctrl/internal/sim"
	"lazyctrl/internal/tenant"
	"lazyctrl/internal/trace"
)

// The window loop: the one scheduler that feeds a trace's time windows
// to the simulator one window ahead of the clock, the one inject path
// every replayed first packet takes, and the two window sources —
// per-flow windows and aggregate (pair, window) cells — that differ only
// in how a window becomes "flows to inject now + a population fold to
// run once the window has ended".

// emulationPrefetchDepth bounds the replay's generate-ahead pipeline:
// a couple of windows generate in the background while the simulator
// drains the current one. Deeper pipelines buy nothing — the DES
// consumes one window per virtual window span — and cost memory.
const emulationPrefetchDepth = 2

// fastPathLatency is the steady-state per-packet forwarding latency for
// packets that hit an installed rule or the L-FIB: datapath processing
// plus one core traversal.
func fastPathLatency(sameSwitch bool) time.Duration {
	const datapath = 40 * time.Microsecond
	if sameSwitch {
		return datapath
	}
	lat := netsim.DefaultLatencies()
	return datapath + lat.Data + time.Duration(lat.JitterFrac*float64(lat.Data)/2)
}

// windowSource loads trace windows in order. load schedules window w's
// first packets through emulation.inject and returns the window's
// population fold, which must not run before the window has ended: by
// then every regroup inside the window is on the fluid's epoch
// timeline, so mid-window regroups attribute exactly. A nil fold means
// the engine folds nothing.
type windowSource interface {
	load(w int) (fold func())
}

// deferredFold runs a window's fold once, at the window's end or in the
// tail flush, and then drops it so the window's flows can be collected.
type deferredFold struct{ fold func() }

func (d *deferredFold) run() {
	if d.fold != nil {
		d.fold()
		d.fold = nil
	}
}

// scheduleWindows starts the window chain: window w loads when the
// clock reaches the start of window w−1 — one full window of lead, so
// every flow event is queued before its time comes while the event
// queue never holds more than ~two windows of flows. It returns the tail
// flush, which folds the windows whose end lay at or past the horizon,
// and the source's release.
func (e *emulation) scheduleWindows() (flush, release func()) {
	last := -1
	for w := 0; w < e.info.Windows; w++ {
		if start, _ := e.info.WindowBounds(w); start >= e.c.Horizon {
			break
		}
		last = w
	}
	var src windowSource
	release = func() {}
	if e.c.AggregatePopulation {
		// On the single-threaded DES there is nothing to overlap cell
		// generation with, so cells generate synchronously at load time.
		agg := &aggWindows{e: e, src: e.c.Source.(trace.AggStream)} // checked in withDefaults
		agg.bg, _ = e.c.Source.(trace.BackgroundStream)
		src = agg
	} else if last >= 0 {
		pf := trace.NewPrefetcher(e.c.Source, 0, last, emulationPrefetchDepth)
		src, release = &flowWindows{e: e, pf: pf}, pf.Close
	}

	s := e.rig.Sim()
	var pending []*deferredFold
	next := 0
	var load func()
	load = func() {
		if next > last {
			return
		}
		w := next
		next++
		from, to := e.info.WindowBounds(w)
		if fold := src.load(w); fold != nil {
			d := &deferredFold{fold: fold}
			pending = append(pending, d)
			if to < e.c.Horizon {
				s.At(sim.Time(to), d.run)
			}
		}
		if w > 0 && w < last {
			// Load window w+1 once the clock reaches the start of
			// window w: its flows are still strictly in the future.
			s.At(sim.Time(from), load)
		}
	}
	// Windows 0 and 1 load before the clock starts; window 1 carries the
	// chain.
	load()
	load()
	return func() {
		for _, d := range pending {
			d.run()
		}
	}, release
}

// inject schedules one replayed flow: its first packet enters the DES at
// its start time, and its remaining packets are accounted analytically
// at the fast-path latency.
func (e *emulation) inject(start time.Duration, src, dst *tenant.Host, packets int) {
	e.res.FlowsInjected++
	if packets > 1 {
		e.rec.RecordLatency(start, fastPathLatency(src.Switch == dst.Switch), packets-1)
	}
	s := e.rig.Sim()
	if at := max(sim.Time(start), s.Now()); at >= e.injects.last {
		e.injects.push(at, src, dst)
		s.AtSorted(sim.Time(start), e.injects.run)
		return
	}
	r := e.rig
	s.At(sim.Time(start), func() { r.Inject(src, dst, 1400) })
}

// injectQueue holds the flows whose first-packet events were scheduled
// at non-decreasing instants. The simulator fires events in (time,
// scheduling order), so it fires these in the order they were queued:
// every event runs the one pre-bound run, which injects the head, and
// queueing a flow allocates only a fixed-size chunk per injectChunk
// flows. Being non-decreasing, the events go through sim.AtSorted and
// wait in its FIFO lane, not the event heap. A per-flow window
// is sorted by start, so all its flows queue; an aggregate window's
// probe starts are random, and a probe earlier than the last one
// queued gets an event of its own.
type injectQueue struct {
	rig    *rig.Rig
	chunks [][]injectFlow // only the last may be short; chunks[0][head] fires next
	head   int
	spare  []injectFlow // the last drained chunk, kept for reuse
	last   sim.Time     // the latest instant queued
	run    func()
}

type injectFlow struct{ src, dst *tenant.Host }

const injectChunk = 1024

func newInjectQueue(r *rig.Rig) *injectQueue {
	q := &injectQueue{rig: r}
	q.run = q.injectHead
	return q
}

func (q *injectQueue) push(at sim.Time, src, dst *tenant.Host) {
	q.last = at
	n := len(q.chunks)
	if n == 0 || len(q.chunks[n-1]) == injectChunk {
		c := q.spare
		if c == nil {
			c = make([]injectFlow, 0, injectChunk)
		}
		q.spare = nil
		q.chunks = append(q.chunks, c)
		n++
	}
	q.chunks[n-1] = append(q.chunks[n-1], injectFlow{src, dst})
}

// injectHead pops the head before injecting, so an injection that
// queues another flow finds the queue consistent.
func (q *injectQueue) injectHead() {
	c := q.chunks[0]
	f := c[q.head]
	c[q.head] = injectFlow{}
	if q.head++; q.head == injectChunk {
		q.chunks[0] = nil
		q.spare, q.chunks, q.head = c[:0], q.chunks[1:], 0
	}
	q.rig.Inject(f.src, f.dst, 1400)
}

// liveGrouping is the view a fold attributes under: the controller's
// grouping and its version in lazy mode, none under the baseline.
func (e *emulation) liveGrouping() (replay.View, uint64) {
	if e.c.Mode != controller.ModeLazy {
		return nil, 0
	}
	ctrl := e.rig.Primary()
	return ctrl.Grouping(), ctrl.GroupingVersion()
}

// flowWindows replays per-flow windows off the prefetch pipeline: every
// in-horizon flow the sampler keeps is injected, and under the fluid
// engine the whole window also folds into the rate aggregates.
type flowWindows struct {
	e  *emulation
	pf *trace.Prefetcher
}

func (s *flowWindows) load(int) func() {
	e := s.e
	flows, _, ok := s.pf.Next() // the pipeline yields windows in chain order
	if !ok {
		return nil
	}
	dir := e.info.Directory
	for i := range flows {
		f := &flows[i]
		if f.Start >= e.c.Horizon {
			break // windows are sorted; the rest is past the horizon
		}
		src, dst := dir.Host(f.Src), dir.Host(f.Dst)
		if src == nil || dst == nil {
			continue
		}
		if e.fluid == nil {
			e.res.PopulationFlows++
		}
		if e.sampler != nil && !e.sampler.Keep(f.Src, f.Dst) {
			continue
		}
		e.inject(f.Start, src, dst, int(f.Packets))
	}
	if e.fluid == nil {
		s.pf.Recycle(flows)
		return nil
	}
	return func() {
		view, version := e.liveGrouping()
		e.fluid.FoldWindow(flows, view, version)
		s.pf.Recycle(flows)
	}
}

// aggWindows replays analytic (pair, window) cells: each window is one
// AggWindow call (O(active pairs)) folded in closed form, and only the
// latency-probe flows of the sampler-kept pairs are materialized.
type aggWindows struct {
	e   *emulation
	src trace.AggStream
	bg  trace.BackgroundStream // nil unless the source splits out a background
}

func (s *aggWindows) load(w int) func() {
	e := s.e
	// The background count (an expanded trace's one-off extras) folds in
	// closed form; only the pair-resolved foreground materializes cells.
	var aggs []trace.PairAgg
	bg := 0
	if s.bg != nil {
		aggs, bg = s.bg.AggWindowSplit(w, nil)
	} else {
		aggs = s.src.AggWindow(w, nil)
	}
	from, to := e.info.WindowBounds(w)
	dir := e.info.Directory

	// Probe emission: kept pairs inject their full per-window flow
	// count, with starts, directions, and payloads drawn from a
	// probe-only window stream (the population fold never sees these —
	// they exist to exercise the DES latency path).
	const probeSalt = 0x9a0be5a17 // probe flows' per-window stream
	rng := trace.WindowRand(e.c.Seed, probeSalt, w)
	span := float64(to - from)
	probe := func(start time.Duration, src, dst *tenant.Host, packets int16) {
		if start < e.c.Horizon {
			e.inject(start, src, dst, int(packets))
		}
	}
	for i := range aggs {
		r := &aggs[i]
		if e.sampler != nil && !e.sampler.Keep(r.Src, r.Dst) {
			continue
		}
		a, b := dir.Host(r.Src), dir.Host(r.Dst)
		if a == nil || b == nil {
			continue
		}
		for j := int32(0); j < r.Flows; j++ {
			start := from + time.Duration(rng.Float64()*span)
			src, dst := a, b
			if rng.IntN(2) == 0 {
				src, dst = b, a
			}
			packets := trace.SamplePayload(rng)
			probe(start, src, dst, packets)
		}
	}
	// Background probe: the one-off background draws are i.i.d., so a
	// flow-level Bernoulli thinning at the same probability matches the
	// pair sampler's expectation (every background pair carries one
	// flow).
	if bg > 0 && e.sampler != nil {
		x := float64(bg) * e.c.SampleProb
		k := int(x)
		if rng.Float64() < x-float64(k) {
			k++
		}
		for _, fl := range s.bg.BackgroundSample(w, k, rng) {
			if src, dst := dir.Host(fl.Src), dir.Host(fl.Dst); src != nil && dst != nil {
				probe(fl.Start, src, dst, fl.Packets)
			}
		}
	}

	return func() {
		view, version := e.liveGrouping()
		e.fluid.FoldAggWindow(aggs, from, to, view, version)
		if bg > 0 {
			e.fluid.FoldBackgroundWindow(bg, trace.ExpandIntraTenantShare, from, to, view, version)
		}
	}
}
