package telemetry

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

func TestRegistrySnapshotSortedAndDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Func("zeta.count", "last registered, first sorted check", func() float64 { return 4 })
		r.Func("alpha.gauge", "", func() float64 { return -2.25 })
		r.Func("beta.func", "derived", func() float64 { return 7.5 })
		return r
	}
	r := build()
	want := []Sample{{"alpha.gauge", -2.25}, {"beta.func", 7.5}, {"zeta.count", 4}}
	if snap := r.Snapshot(); !slices.Equal(snap, want) {
		t.Fatalf("snapshot = %+v, want %+v", snap, want)
	}

	var a, b, prom bytes.Buffer
	if err := r.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSONL dump not reproducible:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
	wantJSONL := `{"name":"alpha.gauge","kind":"gauge","value":-2.25}
{"name":"beta.func","kind":"gauge","value":7.5}
{"name":"zeta.count","kind":"gauge","value":4}
`
	if a.String() != wantJSONL {
		t.Fatalf("JSONL dump:\n%s\nwant:\n%s", a.String(), wantJSONL)
	}
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	wantProm := `# TYPE alpha.gauge gauge
alpha.gauge -2.25
# HELP beta.func derived
# TYPE beta.func gauge
beta.func 7.5
# HELP zeta.count last registered, first sorted check
# TYPE zeta.count gauge
zeta.count 4
`
	if prom.String() != wantProm {
		t.Fatalf("prom output:\n%s\nwant:\n%s", prom.String(), wantProm)
	}
}

func TestNilHandlesNoOp(t *testing.T) {
	var r *Registry
	var c *Counter
	c.Inc()
	r.Func("z", "", nil)
	if c.Value() != 0 {
		t.Fatal("nil counter must read as zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var out bytes.Buffer
	if r.WriteProm(&out) != nil || r.WriteJSONL(&out) != nil || out.Len() != 0 {
		t.Fatal("nil registry must write nothing")
	}
}

func clockAt(now *time.Duration) func() time.Duration {
	return func() time.Duration { return *now }
}

func TestTracerSpansAndSampling(t *testing.T) {
	var now time.Duration
	tr := NewTracer(clockAt(&now), 1, 42)
	root := tr.StartTrace("pktin")
	if root == nil {
		t.Fatal("sample=1 must keep every trace")
	}
	now = 5 * time.Microsecond
	child := tr.StartSpan(root.Context(), "ctrl").Attr("decision", 2)
	now = 7 * time.Microsecond
	child.End()
	tr.Emit(root.Context(), "batch", 1*time.Microsecond, 4*time.Microsecond)
	now = 9 * time.Microsecond
	root.End()
	if tr.Len() != 3 {
		t.Fatalf("completed spans = %d, want 3", tr.Len())
	}
	tree := tr.TreeString()
	want := "pktin [0 9000]\n  batch [1000 4000]\n  ctrl [5000 7000] decision=2\n"
	if tree != want {
		t.Fatalf("tree:\n%s\nwant:\n%s", tree, want)
	}

	// Unsampled: nil spans all the way down, zero completed spans.
	off := NewTracer(clockAt(&now), 0, 42)
	r2 := off.StartTrace("pktin")
	if r2 != nil {
		t.Fatal("sample=0 must drop every trace")
	}
	off.StartSpan(r2.Context(), "ctrl").Attr("k", 1).End()
	off.Emit(r2.Context(), "batch", 0, 0)
	if off.Len() != 0 || off.Dropped.Value() != 1 || off.Kept.Value() != 0 {
		t.Fatalf("unsampled tracer recorded spans: len=%d kept=%d dropped=%d",
			off.Len(), off.Kept.Value(), off.Dropped.Value())
	}

	// Partial sampling is a deterministic function of the seed.
	count := func() uint64 {
		p := NewTracer(clockAt(&now), 0.5, 7)
		for i := 0; i < 1000; i++ {
			if s := p.StartTrace("t"); s != nil {
				s.End()
			}
		}
		return p.Kept.Value()
	}
	k1, k2 := count(), count()
	if k1 != k2 {
		t.Fatalf("sampling not deterministic: %d vs %d", k1, k2)
	}
	if k1 < 400 || k1 > 600 {
		t.Fatalf("sample=0.5 kept %d of 1000, want ≈500", k1)
	}

	// Nil tracer: everything no-ops.
	var nilT *Tracer
	nilT.StartSpan(SpanContext{Trace: 1, Span: 1}, "x").End()
	nilT.Emit(SpanContext{Trace: 1, Span: 1}, "y", 0, 0)
	if nilT.Len() != 0 || nilT.TreeString() != "" {
		t.Fatal("nil tracer must no-op")
	}
	if err := nilT.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestSpanAttrs pins that a span's first four attributes cost no
// allocation beyond the span itself, and that a span with more keeps
// them all, in order.
func TestSpanAttrs(t *testing.T) {
	var now time.Duration
	tr := NewTracer(clockAt(&now), 1, 42)
	ctx := tr.StartTrace("r").Context()
	if allocs := testing.AllocsPerRun(100, func() {
		tr.StartSpan(ctx, "s").Attr("a", 1).Attr("b", 2).Attr("c", 3).Attr("d", 4)
	}); allocs != 1 {
		t.Errorf("a span with four attributes costs %.1f allocations, want 1", allocs)
	}

	tr = NewTracer(clockAt(&now), 1, 42)
	root := tr.StartTrace("r")
	sp := tr.StartSpan(root.Context(), "s")
	for i, key := range []string{"a", "b", "c", "d", "e", "f"} {
		sp.Attr(key, int64(i))
	}
	sp.End()
	root.End()
	if got, want := tr.TreeString(), "r [0 0]\n  s [0 0] a=0 b=1 c=2 d=3 e=4 f=5\n"; got != want {
		t.Errorf("tree:\n%s\nwant:\n%s", got, want)
	}
}

func TestTracerDumpReproducible(t *testing.T) {
	run := func() []byte {
		var now time.Duration
		tr := NewTracer(clockAt(&now), 0.8, 99)
		for i := 0; i < 50; i++ {
			now = time.Duration(i) * time.Millisecond
			root := tr.StartTrace("pktin")
			sp := tr.StartSpan(root.Context(), "ctrl")
			sp.Attr("i", int64(i)).End()
			root.End()
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("span dump not byte-identical across same-seed runs")
	}
}

func TestFlightRingAndTail(t *testing.T) {
	const tGroupConfig, tConfigAck = 11, 12
	RegisterFlightType(tGroupConfig, "GroupConfig")
	RegisterFlightType(tConfigAck, "ConfigAck")
	var f *Flight
	f.Record(FlightEvent{Type: tGroupConfig}) // nil no-op
	if f.Tail() != nil {
		t.Fatal("nil flight tail must be nil")
	}
	f = NewFlight(4)
	if f.Tail() != nil {
		t.Fatal("empty flight tail must be nil")
	}
	for i := 1; i <= 6; i++ {
		f.Record(FlightEvent{
			At: time.Duration(i) * time.Second, Sent: i%2 == 0, Peer: int64(i),
			Type: tGroupConfig, Gen: uint64(i), Ver: uint64(10 + i),
		})
	}
	tail := f.Tail()
	if len(tail) != 4 {
		t.Fatalf("tail length = %d, want ring depth 4", len(tail))
	}
	if want := "t=3000000000 <S3 GroupConfig gen=3 ver=13"; tail[0] != want {
		t.Fatalf("tail[0] = %q, want %q (oldest surviving event)", tail[0], want)
	}
	if want := "t=6000000000 >S6 GroupConfig gen=6 ver=16"; tail[3] != want {
		t.Fatalf("tail[3] = %q, want %q", tail[3], want)
	}
	f.Record(FlightEvent{At: 7 * time.Second, Peer: 7, Type: tConfigAck, Span: 0xabc})
	last := f.Tail()[3]
	if want := "t=7000000000 <S7 ConfigAck span=0000000000000abc"; last != want {
		t.Fatalf("span formatting = %q, want %q", last, want)
	}
}
