package telemetry

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// SpanContext identifies a span within a trace; it is what crosses
// node boundaries, piggybacked on messages that already carry an xid
// wire field (the OpenFlow header's 4-byte xid is the on-wire carrier;
// in-process netsim passes the full 16 bytes — see
// docs/observability.md §Propagation). The zero context means "not
// sampled": StartSpan on it returns nil and the whole subtree costs
// one branch per hop.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Sampled reports whether the context belongs to a sampled trace.
func (c SpanContext) Sampled() bool { return c.Trace != 0 }

// Attr is one span attribute. Values are int64 so the hot path never
// formats strings; the dump layer renders them.
type Attr struct {
	Key string
	Val int64
}

// spanRec is one completed span.
type spanRec struct {
	trace  uint64
	span   uint64
	parent uint64
	name   string
	start  time.Duration
	end    time.Duration
	attrs  []Attr
}

// Span is an open span. All methods are nil-safe: an unsampled trace
// (or an unwired tracer) hands out nil spans and the instrumentation
// sites pay a branch, not an allocation.
type Span struct {
	t   *Tracer
	rec spanRec
	buf [4]Attr // backs rec.attrs, so a span's first four Attr calls do not allocate
}

// Tracer mints causal spans against the sim clock. It is owned by the
// single-threaded sim loop (spans are only created in ordered code —
// the edge switch event handlers and the controller's apply phase,
// never the concurrent decide phase), so span IDs are a deterministic
// seeded sequence and the completed-span dump is byte-identical across
// same-seed runs.
type Tracer struct {
	now    func() time.Duration
	seed   uint64
	seq    uint64
	thresh uint64 // head-sampling: keep a root iff its trace ID < thresh
	spans  []spanRec

	// Sampling decisions, for the registry.
	Kept, Dropped Counter
}

// NewTracer builds a tracer over the sim clock. sample is the
// head-sampling rate in [0,1]: the decision hashes the deterministic
// trace ID, so the kept set is a stable pseudo-random subset — Scale=1
// fluid sweeps stay flat-memory at small rates while every child span
// of a kept trace survives.
func NewTracer(now func() time.Duration, sample float64, seed uint64) *Tracer {
	t := &Tracer{now: now, seed: seed}
	switch {
	case sample >= 1:
		t.thresh = ^uint64(0)
	case sample > 0:
		t.thresh = uint64(sample * float64(^uint64(0)))
	}
	return t
}

// splitmix64 is the ID mixer: deterministic, well-distributed, and
// seedable — the hashed-trace-ID sampling below depends on the output
// being uniform.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nextID mints the next deterministic non-zero ID.
func (t *Tracer) nextID() uint64 {
	for {
		t.seq++
		if id := splitmix64(t.seed + t.seq); id != 0 {
			return id
		}
	}
}

// StartTrace opens a root span, applying the head-sampling decision:
// a nil return means the trace is not sampled and every descendant
// call no-ops.
func (t *Tracer) StartTrace(name string) *Span {
	if t == nil {
		return nil
	}
	id := t.nextID()
	if id >= t.thresh {
		t.Dropped.Inc()
		return nil
	}
	t.Kept.Inc()
	return &Span{t: t, rec: spanRec{trace: id, span: id, name: name, start: t.now()}}
}

// StartSpan opens a child span under ctx; nil tracer or unsampled
// context no-op.
func (t *Tracer) StartSpan(ctx SpanContext, name string) *Span {
	if t == nil || !ctx.Sampled() {
		return nil
	}
	return &Span{t: t, rec: spanRec{
		trace: ctx.Trace, span: t.nextID(), parent: ctx.Span,
		name: name, start: t.now(),
	}}
}

// Emit records an already-closed span under ctx with explicit start
// and end times. This is how out-of-band timelines join a trace: the
// micro-batch residence span (pin time is known only at flush) and the
// absorbed controller.TakeoverTimeline phases.
func (t *Tracer) Emit(ctx SpanContext, name string, start, end time.Duration, attrs ...Attr) {
	if t == nil || !ctx.Sampled() {
		return
	}
	t.spans = append(t.spans, spanRec{
		trace: ctx.Trace, span: t.nextID(), parent: ctx.Span,
		name: name, start: start, end: end, attrs: attrs,
	})
}

// EmitRoot records an already-closed root span with explicit start and
// end times, bypassing head sampling, and returns its context so
// callers can Emit children under it. Reserved for rare, load-bearing
// timelines that must always survive into the dump — the absorbed
// failover trees; per-packet traffic must go through StartTrace.
func (t *Tracer) EmitRoot(name string, start, end time.Duration, attrs ...Attr) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	id := t.nextID()
	t.Kept.Inc()
	t.spans = append(t.spans, spanRec{
		trace: id, span: id, name: name, start: start, end: end, attrs: attrs,
	})
	return SpanContext{Trace: id, Span: id}
}

// Context returns the span's propagation context (zero when nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.rec.trace, Span: s.rec.span}
}

// Attr attaches an attribute and returns the span for chaining.
func (s *Span) Attr(key string, val int64) *Span {
	if s != nil {
		if s.rec.attrs == nil {
			s.rec.attrs = s.buf[:0]
		}
		s.rec.attrs = append(s.rec.attrs, Attr{Key: key, Val: val})
	}
	return s
}

// End closes the span and commits it to the tracer's completed set.
// Only ended spans are dumped; a span left open at the horizon is
// dropped, which keeps the dump deterministic under partial protocol
// exchanges (a flood decision that never answers the ingress switch).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.end = s.t.now()
	s.t.spans = append(s.t.spans, s.rec)
}

// Len reports the number of completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// WriteJSONL dumps completed spans, one JSON object per line in
// completion order, with fixed key order and %016x IDs — byte-
// identical across same-seed runs.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	for i := range t.spans {
		r := &t.spans[i]
		if _, err := fmt.Fprintf(w, `{"trace":"%016x","span":"%016x","parent":"%016x","name":%q,"start":%d,"end":%d`,
			r.trace, r.span, r.parent, r.name, int64(r.start), int64(r.end)); err != nil {
			return err
		}
		if len(r.attrs) > 0 {
			if _, err := io.WriteString(w, `,"attrs":{`); err != nil {
				return err
			}
			for i, a := range r.attrs {
				sep := ""
				if i > 0 {
					sep = ","
				}
				if _, err := fmt.Fprintf(w, "%s%q:%d", sep, a.Key, a.Val); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, "}"); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}\n"); err != nil {
			return err
		}
	}
	return nil
}

// TreeString renders every completed trace as an indented tree of
// "name [start end] attrs" lines, children ordered by start time then
// completion order, traces ordered by root start time. IDs are
// deliberately omitted: the rendering is the causal shape alone (IDs
// depend on the global mint sequence; the causal structure must not).
func (t *Tracer) TreeString() string {
	if t == nil {
		return ""
	}
	children := make(map[uint64][]int, len(t.spans))
	var roots []int
	for i := range t.spans {
		r := &t.spans[i]
		if r.parent == 0 {
			roots = append(roots, i)
		} else {
			children[r.parent] = append(children[r.parent], i)
		}
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool {
			return t.spans[idx[a]].start < t.spans[idx[b]].start
		})
	}
	byStart(roots)
	var out []byte
	var render func(i, depth int)
	render = func(i, depth int) {
		r := &t.spans[i]
		for d := 0; d < depth; d++ {
			out = append(out, "  "...)
		}
		out = append(out, fmt.Sprintf("%s [%d %d]", r.name, int64(r.start), int64(r.end))...)
		for _, a := range r.attrs {
			out = append(out, fmt.Sprintf(" %s=%d", a.Key, a.Val)...)
		}
		out = append(out, '\n')
		kids := children[r.span]
		byStart(kids)
		for _, k := range kids {
			render(k, depth+1)
		}
	}
	for _, i := range roots {
		render(i, 0)
	}
	return string(out)
}
