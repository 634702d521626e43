package trace

import (
	"os"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
)

func smallStream(t testing.TB, seed uint64) Stream {
	t.Helper()
	s, err := NewStream(SmallConfig("small", seed))
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	return s
}

// TestStreamWindowPartition pins the window plan: counts sum to the
// total, every window's flows stay inside its bounds and sorted, and
// the concatenation is globally sorted.
func TestStreamWindowPartition(t *testing.T) {
	s := smallStream(t, 1)
	info := s.Info()
	if info.Windows%24 != 0 {
		t.Fatalf("windows = %d, want a multiple of 24 (hour-aligned)", info.Windows)
	}
	total := 0
	var prev time.Duration = -1
	var buf []Flow
	maxWin := 0
	for w := 0; w < info.Windows; w++ {
		buf = s.GenWindow(w, buf[:0])
		if len(buf) > maxWin {
			maxWin = len(buf)
		}
		from, to := info.WindowBounds(w)
		for i := range buf {
			if buf[i].Start < from || buf[i].Start >= to {
				t.Fatalf("window %d flow at %v outside [%v,%v)", w, buf[i].Start, from, to)
			}
			if buf[i].Start < prev {
				t.Fatalf("window %d not sorted/continuous at %v (prev %v)", w, buf[i].Start, prev)
			}
			prev = buf[i].Start
		}
		total += len(buf)
	}
	if total != info.TotalFlows {
		t.Errorf("windows sum to %d flows, want %d", total, info.TotalFlows)
	}
	if maxWin != info.MaxWindowFlows {
		t.Errorf("observed peak window %d, info says %d", maxWin, info.MaxWindowFlows)
	}
}

// TestStreamWindowIndependence pins the tentpole property: any window
// regenerated out of order, from a fresh stream, is identical to the
// in-order generation — windows depend only on (config, seed, index).
func TestStreamWindowIndependence(t *testing.T) {
	a := smallStream(t, 7)
	b := smallStream(t, 7)
	info := a.Info()
	for _, w := range []int{info.Windows - 1, 0, info.Windows / 2, 3} {
		wa := a.GenWindow(w, nil)
		wb := b.GenWindow(w, nil)
		if len(wa) != len(wb) {
			t.Fatalf("window %d: %d vs %d flows", w, len(wa), len(wb))
		}
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("window %d flow %d differs: %+v vs %+v", w, i, wa[i], wb[i])
			}
		}
	}
}

// TestMaterializeMatchesStream pins that Materialize is exactly the
// stream's windows concatenated — the foundation of every streamed-vs-
// materialized differential below.
func TestMaterializeMatchesStream(t *testing.T) {
	s := smallStream(t, 3)
	tr := Materialize(s)
	if tr.NumFlows() != s.Info().TotalFlows {
		t.Fatalf("materialized %d flows, info says %d", tr.NumFlows(), s.Info().TotalFlows)
	}
	var buf []Flow
	i := 0
	for w := 0; w < s.Info().Windows; w++ {
		buf = s.GenWindow(w, buf[:0])
		for j := range buf {
			if tr.Flows[i] != buf[j] {
				t.Fatalf("flow %d differs from window %d[%d]", i, w, j)
			}
			i++
		}
	}
}

// intensityEqual compares two intensity matrices for byte identity via
// their sorted pair iteration.
func intensityEqual(t *testing.T, a, b *grouping.Intensity) {
	t.Helper()
	if a.NumSwitches() != b.NumSwitches() {
		t.Fatalf("shape differs: %d/%d switches", a.NumSwitches(), b.NumSwitches())
	}
	type pw struct {
		p model.SwitchPair
		w float64
	}
	collect := func(m *grouping.Intensity) []pw {
		var out []pw
		m.ForEachPair(func(p model.SwitchPair, w float64) {
			out = append(out, pw{p, w})
		})
		return out
	}
	pa, pb := collect(a), collect(b)
	if len(pa) != len(pb) {
		t.Fatalf("pair counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("pair %d differs: %+v vs %+v (want bit-identical weights)", i, pa[i], pb[i])
		}
	}
}

// TestStreamIntensityByteIdentical pins acceptance criterion 4 for the
// intensity matrix: streamed windows produce a matrix bit-identical to
// the slice path at equal (seed, scale), for the full span and for
// partial (warmup-style) spans.
func TestStreamIntensityByteIdentical(t *testing.T) {
	s := smallStream(t, 11)
	tr := Materialize(s)
	spans := [][2]time.Duration{
		{0, tr.Duration},
		{0, time.Hour},
		{3*time.Hour + 17*time.Minute, 9 * time.Hour},
	}
	for _, span := range spans {
		ms := StreamIntensity(s, span[0], span[1])
		mt := SwitchIntensity(tr, span[0], span[1])
		intensityEqual(t, ms, mt)
	}
	// The materialized adapter must agree too.
	intensityEqual(t,
		StreamIntensity(tr.Stream(0), 0, tr.Duration),
		SwitchIntensity(tr, 0, tr.Duration))
}

// TestStreamStatsAndCentralityMatch pins acceptance criterion 4 for
// grouping-relevant outputs: streamed centrality equals slice
// centrality, and groupings computed from the streamed intensity are
// byte-identical to those from the slice intensity.
func TestStreamStatsAndCentralityMatch(t *testing.T) {
	s := smallStream(t, 5)
	tr := Materialize(s)

	cs, err := StreamCentrality(s, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := AverageCentrality(tr, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cs != cm {
		t.Errorf("centrality differs: stream %v vs slice %v", cs, cm)
	}

	// Grouping differential: identical intensity input ⇒ identical
	// groups (IniGroup is deterministic per seed).
	group := func(m *grouping.Intensity) string {
		sgi, err := grouping.New(grouping.Config{SizeLimit: 6, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		grp, err := sgi.IniGroup(m)
		if err != nil {
			t.Fatal(err)
		}
		return grp.String()
	}
	gs := group(StreamIntensity(s, 0, tr.Duration))
	gm := group(SwitchIntensity(tr, 0, tr.Duration))
	if gs != gm {
		t.Errorf("groupings differ:\nstream: %s\nslice:  %s", gs, gm)
	}
}

// TestPrefetcherMatchesSequential pins that the parallel prefetch
// pipeline hands out exactly the sequential windows, in order, at any
// depth.
func TestPrefetcherMatchesSequential(t *testing.T) {
	s := smallStream(t, 13)
	info := s.Info()
	var want [][]Flow
	var buf []Flow
	for w := 0; w < info.Windows; w++ {
		buf = s.GenWindow(w, buf[:0])
		want = append(want, append([]Flow(nil), buf...))
	}
	for _, depth := range []int{1, 3, 8} {
		p := NewPrefetcher(s, 0, info.Windows-1, depth)
		for w := 0; w < info.Windows; w++ {
			flows, idx, ok := p.Next()
			if !ok {
				t.Fatalf("depth %d: pipeline ended at window %d", depth, w)
			}
			if idx != w {
				t.Fatalf("depth %d: got window %d, want %d", depth, idx, w)
			}
			if len(flows) != len(want[w]) {
				t.Fatalf("depth %d window %d: %d flows, want %d", depth, w, len(flows), len(want[w]))
			}
			for i := range flows {
				if flows[i] != want[w][i] {
					t.Fatalf("depth %d window %d flow %d differs", depth, w, i)
				}
			}
			p.Recycle(flows)
		}
		if _, _, ok := p.Next(); ok {
			t.Fatalf("depth %d: pipeline did not end", depth)
		}
		p.Close()
	}
}

// TestPrefetcherEarlyClose pins that abandoning a pipeline mid-stream
// does not leak goroutines.
func TestPrefetcherEarlyClose(t *testing.T) {
	s := smallStream(t, 17)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		p := NewPrefetcher(s, 0, s.Info().Windows-1, 4)
		_, _, _ = p.Next()
		p.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines grew %d -> %d after Close", before, n)
	}
}

// TestExpandStreamMatchesMaterialized pins the combinator differential:
// Expand (materialized) is exactly ExpandStream's windows concatenated,
// and the streamed intensity of the expanded trace is byte-identical
// to the slice path.
func TestExpandStreamMatchesMaterialized(t *testing.T) {
	base := Materialize(smallStream(t, 8))
	es, err := ExpandStream(base.Stream(0), 0.30, 8, 24, 99)
	if err != nil {
		t.Fatal(err)
	}
	exp := Materialize(es)
	if got, want := exp.NumFlows(), es.Info().TotalFlows; got != want {
		t.Fatalf("materialized %d flows, info says %d", got, want)
	}
	intensityEqual(t,
		StreamIntensity(es, 0, exp.Duration),
		SwitchIntensity(exp, 0, exp.Duration))

	// Generator-backed bases compose too.
	gs := smallStream(t, 8)
	egs, err := ExpandStream(gs, 0.30, 8, 24, 99)
	if err != nil {
		t.Fatal(err)
	}
	gexp := Materialize(egs)
	intensityEqual(t,
		StreamIntensity(egs, 0, gexp.Duration),
		SwitchIntensity(gexp, 0, gexp.Duration))
}

// TestStreamFlatMemory generates many windows through one reused
// buffer and checks the heap does not grow with the number of windows
// consumed — the flat-memory property at test scale.
func TestStreamFlatMemory(t *testing.T) {
	cfg := SmallConfig("flat", 21)
	cfg.PaperFlows = 2_000_000
	cfg.WindowsPerHour = 8 // 192 windows ≈ 10.4k flows each
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := s.Info()
	var buf []Flow
	// Warm the buffer to its peak before measuring.
	buf = s.GenWindow(0, buf[:0])
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for w := 0; w < info.Windows; w++ {
		buf = s.GenWindow(w, buf[:0])
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// The whole trace would be ~48 MB of Flow records; a flat pipeline
	// retains about one window (≤ ~0.5 MB) plus noise.
	if grew > 8<<20 {
		t.Errorf("heap grew %d bytes across %d windows; streaming should stay flat", grew, info.Windows)
	}
	if info.TotalFlows != int(cfg.PaperFlows) {
		t.Fatalf("total flows = %d", info.TotalFlows)
	}
}

// TestSynAFullScaleStream is the full-scale smoke: the paper's Syn-A
// trace at Scale=1 — 2.72B flows, unreachable materialized (87 GB of
// flow records) — is constructible and consumable as a stream under a
// fixed memory budget. The ungated run checks the window plan end to
// end and generates sample windows across the day; set
// LAZYCTRL_FULLSCALE=1 to sweep every window.
func TestSynAFullScaleStream(t *testing.T) {
	if testing.Short() {
		t.Skip("full Syn-A topology")
	}
	s, err := NewStream(SynAConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	info := s.Info()
	if info.TotalFlows != int(SynAFlows) {
		t.Fatalf("TotalFlows = %d, want %d", info.TotalFlows, SynAFlows)
	}
	if info.MaxWindowFlows > 4*targetWindowFlows {
		t.Errorf("peak window = %d flows, want ≤ %d (flat windows at full scale)",
			info.MaxWindowFlows, 4*targetWindowFlows)
	}
	t.Logf("Syn-A scale=1: %d flows in %d windows (peak window %d flows ≈ %.1f MB)",
		info.TotalFlows, info.Windows, info.MaxWindowFlows,
		float64(info.MaxWindowFlows*FlowBytes)/(1<<20))

	windows := []int{0, info.Windows / 4, info.Windows / 2, 3 * info.Windows / 4, info.Windows - 1}
	if os.Getenv("LAZYCTRL_FULLSCALE") != "" {
		windows = windows[:0]
		for w := 0; w < info.Windows; w++ {
			windows = append(windows, w)
		}
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var buf []Flow
	generated := 0
	for _, w := range windows {
		buf = s.GenWindow(w, buf[:0])
		generated += len(buf)
		from, to := info.WindowBounds(w)
		for i := range buf {
			if buf[i].Start < from || buf[i].Start >= to {
				t.Fatalf("window %d flow outside bounds", w)
			}
		}
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const budget = 64 << 20 // one window buffer is ~2.3 MB; allow slack
	if grew > budget {
		t.Errorf("heap grew %d bytes over %d windows, budget %d", grew, len(windows), budget)
	}
	t.Logf("generated %d flows over %d windows, heap growth %d bytes", generated, len(windows), grew)
}

// TestFlowBytesMatchesStruct pins the exported memory-accounting
// constant to the actual Flow footprint.
func TestFlowBytesMatchesStruct(t *testing.T) {
	if got := int(unsafe.Sizeof(Flow{})); got != FlowBytes {
		t.Fatalf("unsafe.Sizeof(Flow{}) = %d, FlowBytes = %d — update the constant", got, FlowBytes)
	}
}
