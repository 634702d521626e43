package trace

import (
	"math/rand/v2"
	"sync"
	"time"

	"lazyctrl/internal/tenant"
)

// This file is the streaming half of the trace pipeline. A Stream
// yields time-ordered flow windows on demand instead of materializing
// the whole flow slice, so the emulation's resident set is O(window)
// regardless of trace length — which is what makes the paper's
// full-scale synthetic traces (2.7–5.1B flows, §V) reachable at all.
// Each generator window is re-seeded deterministically from
// (seed, window index) by WindowRand, so any window is synthesizable
// independently of its predecessors: windows can be generated lazily,
// out of order, or in parallel on a bounded prefetch pipeline while
// the consumer drains the previous one, and the result is always the
// same flows in the same order.

// StreamInfo is a stream's static metadata: everything a consumer
// needs without generating a single flow.
type StreamInfo struct {
	Name string
	// Duration is the trace span (24h for all paper traces).
	Duration time.Duration
	// Directory holds tenants, hosts, and host→switch placement.
	Directory *tenant.Directory
	// P, Q, and Scale are the Table II parameters of the generator.
	P, Q  int
	Scale int
	// Windows is the number of time windows the trace is partitioned
	// into; window w spans [WindowStart(w), WindowStart(w+1)).
	Windows int
	// TotalFlows is the exact flow count across all windows.
	TotalFlows int
	// MaxWindowFlows is the largest per-window flow count — the
	// streaming pipeline's peak flow-buffer footprint, in flows.
	MaxWindowFlows int
}

// WindowStart returns the start of window w. Integer arithmetic keeps
// the boundaries exact (no accumulated drift): window w spans
// [Duration·w/Windows, Duration·(w+1)/Windows).
func (i StreamInfo) WindowStart(w int) time.Duration {
	if i.Windows <= 0 {
		return 0
	}
	return i.Duration * time.Duration(w) / time.Duration(i.Windows)
}

// WindowBounds returns window w's [from, to) span.
func (i StreamInfo) WindowBounds(w int) (from, to time.Duration) {
	return i.WindowStart(w), i.WindowStart(w + 1)
}

// Stream is a lazily generable flow source: the trace's flows
// partitioned into time-ordered windows, each synthesizable on demand.
// Implementations must be deterministic per window and safe for
// concurrent GenWindow calls with distinct windows (the prefetch
// pipeline generates ahead while the consumer drains).
type Stream interface {
	// Info returns the stream's static metadata.
	Info() StreamInfo
	// GenWindow appends window w's flows, sorted by Start, to buf and
	// returns the extended slice. buf is a reusable scratch slice:
	// passing the previous window's buffer re-sliced to [:0] keeps the
	// pipeline's flow memory flat at one window.
	GenWindow(w int, buf []Flow) []Flow
	// drawWindow appends the same flows as GenWindow in draw order,
	// unsorted: the folds whose result does not depend on flow order
	// (StreamIntensity, StreamCentrality) skip the sort.
	drawWindow(w int, buf []Flow) []Flow
}

// SplitMix64 is the SplitMix64 mixer: the window seeding below runs it
// over (seed, window) so every window owns an independent, reproducible
// random stream, and the replay engines hash pair keys through the same
// mixer (exported so there is exactly one copy of the bit pattern the
// pipeline's determinism claims rest on).
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WindowRand returns window w's random stream for one purpose: a PCG
// seeded by SplitMix64 over (seed, window), salted per purpose so
// combinators (Expand) and the probe emitter draw from streams disjoint
// from the base generator's.
func WindowRand(seed, salt uint64, w int) *rand.Rand {
	x := SplitMix64(seed ^ salt ^ (uint64(w)+1)*0x9e3779b97f4a7c15)
	return rand.New(rand.NewPCG(x, SplitMix64(x^0xbf58476d1ce4e5b9)))
}

// apportion splits total across len(weights) windows proportionally to
// the weights, deterministically and exactly (the counts sum to
// total): emitApportioned's cumulative rounding from the first window,
// so a window's count depends only on the cumulative weight up to it,
// never on sampling noise.
func apportion(total int, weights []float64) []int {
	counts := make([]int, len(weights))
	emitApportioned(total, len(weights), 0,
		func(i int) float64 { return weights[i] },
		func(i, n int) { counts[i] = n })
	return counts
}

// maxInts returns the largest element (0 for empty).
func maxInts(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Materialize collects every window of a stream into a conventional
// *Trace — the thin materialized adapter kept for small tests and for
// consumers that genuinely need random access. The flow order is the
// stream's window order (windows are time-disjoint and internally
// sorted, so the result is globally sorted without a re-sort), which
// is what makes streamed and materialized consumption byte-identical.
func Materialize(s Stream) *Trace {
	info := s.Info()
	flows := make([]Flow, 0, info.TotalFlows)
	for w := 0; w < info.Windows; w++ {
		flows = s.GenWindow(w, flows)
	}
	return &Trace{
		Name:      info.Name,
		Duration:  info.Duration,
		Flows:     flows,
		Directory: info.Directory,
		P:         info.P,
		Q:         info.Q,
		Scale:     info.Scale,
	}
}

// sliceStream adapts a materialized *Trace to the Stream interface:
// GenWindow returns sub-slices of the flow slice (zero copy). It is a
// replay source only: ExpandStream refuses it as a base.
type sliceStream struct {
	t       *Trace
	windows int
}

// Stream returns a slice-backed stream over the materialized trace,
// partitioned into the given number of windows (0 selects one per
// hour). Windows are served as sub-slices of Flows, so the adapter
// adds no memory; it exists so stream consumers can run over small
// materialized traces in tests.
func (t *Trace) Stream(windows int) Stream {
	if windows <= 0 {
		windows = 24
	}
	return &sliceStream{t: t, windows: windows}
}

func (s *sliceStream) Info() StreamInfo {
	info := StreamInfo{
		Name:       s.t.Name,
		Duration:   s.t.Duration,
		Directory:  s.t.Directory,
		P:          s.t.P,
		Q:          s.t.Q,
		Scale:      s.t.Scale,
		Windows:    s.windows,
		TotalFlows: len(s.t.Flows),
	}
	for w := 0; w < s.windows; w++ {
		from, to := info.WindowBounds(w)
		if n := len(s.t.Window(from, to)); n > info.MaxWindowFlows {
			info.MaxWindowFlows = n
		}
	}
	return info
}

func (s *sliceStream) GenWindow(w int, buf []Flow) []Flow {
	info := StreamInfo{Duration: s.t.Duration, Windows: s.windows}
	from, to := info.WindowBounds(w)
	return append(buf, s.t.Window(from, to)...)
}

func (s *sliceStream) drawWindow(w int, buf []Flow) []Flow { return s.GenWindow(w, buf) }

// Prefetcher generates a stream's windows ahead of the consumer on a
// bounded pipeline: up to depth windows are in flight concurrently,
// and Next hands them out strictly in window order. Window contents
// are independent of scheduling (each window owns its rng), so the
// pipeline changes wall-clock, never results. Buffers returned by
// Next should be handed back via Recycle to keep the pipeline's
// memory flat at ~depth windows.
type Prefetcher struct {
	s     Stream
	slots chan chan []Flow
	free  chan []Flow
	sem   chan struct{}
	done  chan struct{}
	once  sync.Once
	next  int
}

// NewPrefetcher starts a pipeline over windows [first, last] of s with
// the given concurrency depth (values < 1 select 1).
func NewPrefetcher(s Stream, first, last, depth int) *Prefetcher {
	if depth < 1 {
		depth = 1
	}
	p := &Prefetcher{
		s:     s,
		slots: make(chan chan []Flow, depth),
		free:  make(chan []Flow, depth+1),
		sem:   make(chan struct{}, depth),
		done:  make(chan struct{}),
		next:  first,
	}
	go func() {
		defer close(p.slots)
		for w := first; w <= last; w++ {
			select {
			case p.sem <- struct{}{}:
			case <-p.done:
				return
			}
			slot := make(chan []Flow, 1)
			select {
			case p.slots <- slot:
			case <-p.done:
				return
			}
			go func(w int) {
				var buf []Flow
				select {
				case buf = <-p.free:
				default:
				}
				slot <- p.s.GenWindow(w, buf[:0])
			}(w)
		}
	}()
	return p
}

// Next returns the next window's flows and index, or ok=false when the
// range is exhausted. The slice is valid until it is recycled.
func (p *Prefetcher) Next() (flows []Flow, w int, ok bool) {
	slot, open := <-p.slots
	if !open {
		return nil, 0, false
	}
	flows = <-slot
	<-p.sem
	w = p.next
	p.next++
	return flows, w, true
}

// Recycle hands a window buffer back to the pipeline for reuse.
func (p *Prefetcher) Recycle(buf []Flow) {
	if cap(buf) == 0 {
		return
	}
	select {
	case p.free <- buf:
	default:
	}
}

// Close stops the pipeline; in-flight windows finish into their
// buffered slots and are collected. Safe to call more than once.
func (p *Prefetcher) Close() {
	p.once.Do(func() { close(p.done) })
}
