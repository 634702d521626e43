package trace

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"lazyctrl/internal/grouping"
	"lazyctrl/internal/tenant"
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
// total, every window's flows stay inside its bounds and sorted, the
// concatenation is globally sorted, and MaxWindowFlows is the observed
// peak window — for the generator and for expansions of it, whose peak
// the replay's injection queue and prefetch buffers are sized from. The
// night-time expansion puts its extras away from the base's busiest
// window, where the base's peak plus the extras' peak overstates it.
func TestStreamWindowPartition(t *testing.T) {
	streams := []Stream{smallStream(t, 1), mustExpand(t, smallStream(t, 1), 0.30, 0, 4, 99)}
	for _, seed := range []uint64{1, 4, 8, 11} {
		streams = append(streams, mustExpand(t, smallStream(t, seed), 0.30, 8, 24, 99))
	}
	for i, s := range streams {
		info := s.Info()
		name := fmt.Sprintf("stream %d (%s)", i, info.Name)
		if info.Windows%24 != 0 {
			t.Fatalf("%s: windows = %d, want a multiple of 24 (hour-aligned)", name, info.Windows)
		}
		total := 0
		var prev time.Duration = -1
		var buf []Flow
		maxWin := 0
		for w := 0; w < info.Windows; w++ {
			buf = s.GenWindow(w, buf[:0])
			maxWin = max(maxWin, len(buf))
			from, to := info.WindowBounds(w)
			for i := range buf {
				if buf[i].Start < from || buf[i].Start >= to {
					t.Fatalf("%s: window %d flow at %v outside [%v,%v)", name, w, buf[i].Start, from, to)
				}
				if buf[i].Start < prev {
					t.Fatalf("%s: window %d not sorted/continuous at %v (prev %v)", name, w, buf[i].Start, prev)
				}
				prev = buf[i].Start
			}
			total += len(buf)
		}
		if total != info.TotalFlows {
			t.Errorf("%s: windows sum to %d flows, want %d", name, total, info.TotalFlows)
		}
		if maxWin != info.MaxWindowFlows {
			t.Errorf("%s: observed peak window %d, info says %d", name, maxWin, info.MaxWindowFlows)
		}
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

// intensityEqual compares two intensity matrices for byte identity:
// the same switches in the same registration order, which groupings
// see, and bit-identical weights. Both sides are cloned first: a clone's
// copy-on-write flag is set whatever its source's was, and DeepEqual
// reads the flag.
func intensityEqual(t *testing.T, a, b *grouping.Intensity) {
	t.Helper()
	if !reflect.DeepEqual(a.Clone(), b.Clone()) {
		t.Fatalf("matrices differ: %d switches, total %v, max pair %v vs %d, %v, %v",
			a.NumSwitches(), a.Total(), a.MaxPair(), b.NumSwitches(), b.Total(), b.MaxPair())
	}
}

// refIntensity is the fold the pair counts replace: one Add per flow,
// in flow order, onto a matrix with every switch registered first.
func refIntensity(dir *tenant.Directory, flows []Flow, from, to time.Duration) *grouping.Intensity {
	m := grouping.NewIntensity()
	for _, sw := range dir.Switches() {
		m.AddSwitch(sw)
	}
	seconds := (to - from).Seconds()
	if seconds <= 0 {
		return m
	}
	for i := range flows {
		f := &flows[i]
		if f.Start < from || f.Start >= to {
			continue
		}
		src, dst := dir.Host(f.Src), dir.Host(f.Dst)
		if src == nil || dst == nil || src.Switch == dst.Switch {
			continue
		}
		m.Add(src.Switch, dst.Switch, 1.0/seconds)
	}
	return m
}

// TestStreamIntensityByteIdentical pins acceptance criterion 4 for the
// intensity matrix: streamed windows produce a matrix bit-identical to
// the slice path and to refIntensity's per-flow fold at equal (seed,
// scale), for the full span and for partial (warmup-style) spans, over
// a generator and its expansion. StreamIntensity counts windows
// unsorted, so this is also the test that the fold does not depend on
// flow order.
func TestStreamIntensityByteIdentical(t *testing.T) {
	s := smallStream(t, 11)
	es := mustExpand(t, s, 0.30, 8, 24, 99)
	spans := [][2]time.Duration{
		{0, TraceDuration},
		{0, time.Hour},
		{3*time.Hour + 17*time.Minute, 9 * time.Hour},
		{10 * time.Hour, 21*time.Hour + 40*time.Minute},
	}
	for _, st := range []Stream{s, es} {
		tr := Materialize(st)
		for _, span := range spans {
			ms := StreamIntensity(st, span[0], span[1])
			mt := SwitchIntensity(tr, span[0], span[1])
			intensityEqual(t, ms, mt)
			intensityEqual(t, ms, refIntensity(tr.Directory, tr.Flows, span[0], span[1]))
		}
	}
	// The materialized adapter must agree too.
	tr := Materialize(s)
	intensityEqual(t,
		StreamIntensity(tr.Stream(0), 0, tr.Duration),
		SwitchIntensity(tr, 0, tr.Duration))
}

// TestSwitchPairCountsFlushEarly pins the wrap guard: a pair count that
// reaches math.MaxUint16 goes to the matrix at once and counts on from
// zero, and the matrix is still refIntensity's, bit for bit.
func TestSwitchPairCountsFlushEarly(t *testing.T) {
	tr := Materialize(smallStream(t, 5))
	flows := slices.Clone(tr.Flows)
	i := slices.IndexFunc(flows, func(f Flow) bool {
		return tr.Directory.Host(f.Src).Switch != tr.Directory.Host(f.Dst).Switch
	})
	for range 2*math.MaxUint16 + 3 {
		flows = append(flows, flows[i])
	}
	c := newSwitchPairCounts(tr.Directory, 0, tr.Duration)
	c.add(flows)
	if c.m.Total() == 0 {
		t.Fatal("no pair went to the matrix before flush")
	}
	intensityEqual(t, c.flush(), refIntensity(tr.Directory, flows, 0, tr.Duration))
}

func mustExpand(t testing.TB, base Stream, extra float64, fromHour, toHour int, seed uint64) Stream {
	t.Helper()
	s, err := ExpandStream(base, extra, fromHour, toHour, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGenWindowSortsDrawWindow pins the split between drawing a window
// and ordering it: for every window of each stream kind, GenWindow
// appends the flows drawWindow appends, sorted by Start, and leaves the
// buffer's prefix alone. For the generator, GenWindow is exactly
// drawWindow run through the generator's sort, ties included.
func TestGenWindowSortsDrawWindow(t *testing.T) {
	byStart := func(a, b Flow) int { return cmp.Compare(a.Start, b.Start) }
	total := func(a, b Flow) int {
		return cmp.Or(byStart(a, b), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Packets, b.Packets))
	}
	gs := smallStream(t, 4)
	streams := []struct {
		name string
		s    Stream
	}{
		{"generator", gs},
		{"adapter", Materialize(gs).Stream(0)},
		{"expanded", mustExpand(t, gs, 0.30, 8, 24, 99)},
	}
	prefix := Flow{Start: -1, Src: 1, Dst: 2, Packets: 3}
	for _, c := range streams {
		for w := 0; w < c.s.Info().Windows; w++ {
			gen := c.s.GenWindow(w, []Flow{prefix})
			drawn := c.s.drawWindow(w, []Flow{prefix})
			if gen[0] != prefix || drawn[0] != prefix {
				t.Fatalf("%s window %d: buffer prefix overwritten", c.name, w)
			}
			gen, drawn = gen[1:], drawn[1:]
			if !slices.IsSortedFunc(gen, byStart) {
				t.Fatalf("%s window %d: GenWindow not sorted by Start", c.name, w)
			}
			if c.name == "generator" {
				sorted := slices.Clone(drawn)
				slices.SortFunc(sorted, byStart)
				if !slices.Equal(gen, sorted) {
					t.Fatalf("%s window %d: GenWindow is not drawWindow sorted", c.name, w)
				}
			}
			slices.SortFunc(gen, total)
			slices.SortFunc(drawn, total)
			if !slices.Equal(gen, drawn) {
				t.Fatalf("%s window %d: GenWindow has %d flows, drawWindow %d, or they differ",
					c.name, w, len(gen), len(drawn))
			}
		}
	}
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
// the materialized expansion holds exactly the flows its info counts,
// and the streamed intensity of the expanded trace is byte-identical
// to the slice path.
func TestExpandStreamMatchesMaterialized(t *testing.T) {
	es := mustExpand(t, smallStream(t, 8), 0.30, 8, 24, 99)
	exp := Materialize(es)
	if got, want := exp.NumFlows(), es.Info().TotalFlows; got != want {
		t.Fatalf("materialized %d flows, info says %d", got, want)
	}
	intensityEqual(t,
		StreamIntensity(es, 0, exp.Duration),
		SwitchIntensity(exp, 0, exp.Duration))
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
