package lazyctrl

// One benchmark per table/figure of the paper's evaluation (§V). Each
// bench regenerates its artifact at a reduced-but-faithful scale and
// logs the headline values next to the paper's. cmd/experiments prints
// the full rows/series at higher fidelity.

import (
	"math"
	"runtime"
	"syscall"
	"testing"
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/eval"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/replay"
	"lazyctrl/internal/trace"
)

// BenchmarkTableII regenerates the trace-characteristics table
// (Table II): flow counts and average 5-way centrality per dataset.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.TableII(50_000, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-6s flows=%d centrality=%.3f (paper %.2f) p=%d q=%d",
					r.Name, r.MeasuredFlows, r.AvgCentrality, r.PaperC, r.P, r.Q)
			}
		}
	}
}

// BenchmarkFig6a regenerates the inter-group traffic intensity sweep of
// Fig. 6(a): W_inter versus the number of groups on Syn-A/B/C.
func BenchmarkFig6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := eval.Fig6a(60_000, uint64(i)+1, []int{5, 20, 80, 140})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("%-6s groups=%-4d Winter=%.1f%%", p.Trace, p.Groups, p.WinterPct)
			}
		}
	}
}

// BenchmarkFig6b regenerates the grouping computation-time sweep of
// Fig. 6(b): IniGroup wall time versus group size limit, plus the
// IncUpdate speedup the paper cites.
func BenchmarkFig6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := eval.Fig6b(60_000, uint64(i)+1, []int{50, 200, 600})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("%-6s limit=%-4d IniGroup=%v IncUpdate=%v",
					p.Trace, p.SizeLimit, p.Elapsed.Round(time.Millisecond), p.IncElapsed.Round(time.Millisecond))
			}
		}
	}
}

// BenchmarkIncUpdate times one IncUpdate on drifted traffic, the scenario
// Fig. 6(b)'s IncUpdate column stands for: Syn-A at scale 60000, seed 1,
// grouped by IniGroup at size limit 50 on the first half of the day, then
// updated against the whole day. Every iteration starts from the same
// grouping and SGI state, so allocs/op is deterministic; cmd/bench gates
// it. updates/op is the number of merge/splits applied.
func BenchmarkIncUpdate(b *testing.B) {
	s, err := trace.NewStream(trace.SynAConfig(60_000, 1))
	if err != nil {
		b.Fatal(err)
	}
	day := s.Info().Duration
	sgi, err := grouping.New(grouping.Config{SizeLimit: 50, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	grp, err := sgi.IniGroup(trace.StreamIntensity(s, 0, day/2))
	if err != nil {
		b.Fatal(err)
	}
	whole := trace.StreamIntensity(s, 0, day)
	var ops int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run, g := *sgi, grp.Clone()
		b.StartTimer()
		if ops, err = run.IncUpdate(g, whole, nil); err != nil {
			b.Fatal(err)
		}
	}
	if ops == 0 {
		b.Fatal("IncUpdate applied no merge/split: the instance does not drift")
	}
	b.ReportMetric(float64(ops), "updates/op")
}

// benchFig789 shares the five-run emulation among the Fig. 7/8/9
// benches at a reduced scale and a half-day horizon (cmd/experiments
// runs the full-fidelity 24 h version).
func benchFig789(b *testing.B, report func(*eval.Fig789Result)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig789(eval.Fig789Config{
			Scale:   50_000,
			Seed:    uint64(i) + 1,
			Horizon: 12 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(res)
		}
	}
}

// BenchmarkFig7 regenerates the controller-workload comparison of
// Fig. 7: OpenFlow vs LazyCtrl static/dynamic on the real and expanded
// traces.
func BenchmarkFig7(b *testing.B) {
	benchFig789(b, func(res *eval.Fig789Result) {
		for _, name := range []string{
			eval.SeriesOpenFlow, eval.SeriesRealStatic, eval.SeriesRealDynamic,
			eval.SeriesExpandedStatic, eval.SeriesExpandedDynamic,
		} {
			b.Logf("%-28s mean workload = %.2f Krps", name, eval.Mean(res.Series[name].WorkloadKrps))
		}
		b.Logf("reductions: real %.0f%%/%.0f%%, expanded %.0f%%/%.0f%% (paper: 61–82%%)",
			100*res.ReductionRealStatic, 100*res.ReductionRealDynamic,
			100*res.ReductionExpandedStatic, 100*res.ReductionExpandedDynamic)
	})
}

// BenchmarkFig7Sampled runs the same five-series Fig. 7 sweep through
// the sampled replay engine at p = 0.1: a tenth of the pair population
// rides the DES and the workload estimators are reweighted by 1/p
// (internal/replay). events/op reports the total discrete events the
// five simulators executed — the cost metric the scaled engines exist
// to shrink (compare BenchmarkFig7's full-DES runs). Gated in
// cmd/bench alongside Fig7.
func BenchmarkFig7Sampled(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig789(eval.Fig789Config{
			Scale:      50_000,
			Seed:       uint64(i) + 1,
			Horizon:    12 * time.Hour,
			Engine:     replay.EngineSampled,
			SampleProb: 0.1,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = 0
		for _, r := range res.Series {
			events += r.SimEvents
		}
		if i == 0 {
			b.Logf("reductions: real %.0f%%/%.0f%%, expanded %.0f%%/%.0f%% (paper: 61–82%%)",
				100*res.ReductionRealStatic, 100*res.ReductionRealDynamic,
				100*res.ReductionExpandedStatic, 100*res.ReductionExpandedDynamic)
		}
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkFig8 regenerates the grouping-update frequency series of
// Fig. 8 on the real and expanded traces.
func BenchmarkFig8(b *testing.B) {
	benchFig789(b, func(res *eval.Fig789Result) {
		for _, name := range []string{eval.SeriesRealDynamic, eval.SeriesExpandedDynamic} {
			r := res.Series[name]
			b.Logf("%-28s updates/hour = %v (total %d)", name, r.UpdatesPerHour, r.Recorder.TotalUpdates())
		}
	})
}

// BenchmarkFig9 regenerates the steady-state latency comparison of
// Fig. 9.
func BenchmarkFig9(b *testing.B) {
	benchFig789(b, func(res *eval.Fig789Result) {
		of := eval.Mean(res.Series[eval.SeriesOpenFlow].AvgLatencyMs)
		lz := eval.Mean(res.Series[eval.SeriesRealStatic].AvgLatencyMs)
		b.Logf("OpenFlow %.3f ms vs LazyCtrl %.3f ms (reduction %.0f%%, paper ≈10%%)",
			of, lz, 100*(1-lz/of))
	})
}

// BenchmarkColdCache regenerates the §V-E first-packet latency
// comparison: LazyCtrl intra-group / inter-group vs OpenFlow.
func BenchmarkColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.ColdCache(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("intra=%v (paper 0.83ms) inter=%v (5.38ms) openflow=%v (15.06ms)",
				res.LazyIntra.Round(time.Microsecond), res.LazyInter.Round(time.Microsecond),
				res.OpenFlow.Round(time.Microsecond))
		}
	}
}

// BenchmarkStorage regenerates the §V-D storage-overhead analysis:
// G-FIB bytes and false-positive rate versus group size.
func BenchmarkStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := eval.Storage([]int{10, 46, 100, 600}, 24)
		if i == 0 {
			for _, r := range rows {
				b.Logf("group=%-4d gfib=%dB fpp=%.4f%%", r.GroupSize, r.GFIBBytes, 100*r.FPP)
			}
		}
	}
}

// BenchmarkTraceGeneration measures the synthetic trace generator
// (workload substrate).
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(trace.RealLikeConfig(50_000, uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// streamBenchScale sizes the trace-stream benchmarks to the Fig7
// pipeline's working set: at the default experiments scale (5000),
// RunFig789 held ~670k materialized flows resident (the real trace,
// its +30% expansion, and the 10×-denser warmup generation at scale
// 500, which dominated). Scale 250 generates ~1.08M flows — the same
// order — through one preset, end to end: generation + intensity
// consumption.
const streamBenchScale = 250

// BenchmarkTraceStream measures generation + consumption of the
// Fig7-pipeline trace through the streaming path: flows are emitted
// one window at a time into a reused buffer and folded straight into
// the switch-intensity matrix, so allocations are flat in trace
// length. peak-B/op reports the pipeline's peak flow-buffer footprint
// (one window); compare with BenchmarkTraceMaterialized, whose peak is
// the whole flow slice. Gated in cmd/bench alongside Fig6b/Fig7.
func BenchmarkTraceStream(b *testing.B) {
	s, err := trace.NewStream(trace.RealLikeConfig(streamBenchScale, 1))
	if err != nil {
		b.Fatal(err)
	}
	info := s.Info()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := trace.StreamIntensity(s, 0, info.Duration)
		if m.Total() <= 0 {
			b.Fatal("no intensity accumulated")
		}
	}
	b.ReportMetric(float64(info.MaxWindowFlows*trace.FlowBytes), "peak-B/op")
}

// BenchmarkTraceMaterialized is the baseline BenchmarkTraceStream is
// measured against: the same generation + consumption with the flow
// slice materialized first, as the pre-streaming pipeline did.
func BenchmarkTraceMaterialized(b *testing.B) {
	s, err := trace.NewStream(trace.RealLikeConfig(streamBenchScale, 1))
	if err != nil {
		b.Fatal(err)
	}
	info := s.Info()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trace.Materialize(s)
		m := trace.SwitchIntensity(tr, 0, tr.Duration)
		if m.Total() <= 0 {
			b.Fatal("no intensity accumulated")
		}
	}
	b.ReportMetric(float64(info.TotalFlows*trace.FlowBytes), "peak-B/op")
}

// TestTraceStreamMemoryReduction pins the acceptance target: at the
// Fig7-pipeline scale, trace generation + consumption through the
// stream allocates ≥10× fewer bytes/op than the materialized path,
// and its peak flow buffer is ≥10× smaller than the flow slice.
func TestTraceStreamMemoryReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the Fig7-pipeline trace repeatedly")
	}
	stream := testing.Benchmark(BenchmarkTraceStream)
	materialized := testing.Benchmark(BenchmarkTraceMaterialized)
	sBytes, mBytes := stream.AllocedBytesPerOp(), materialized.AllocedBytesPerOp()
	t.Logf("bytes/op: stream=%d materialized=%d (%.1f×)", sBytes, mBytes, float64(mBytes)/float64(sBytes))
	if sBytes == 0 || mBytes < 10*sBytes {
		t.Errorf("stream path allocates %dB/op vs %dB/op materialized: want ≥10× reduction", sBytes, mBytes)
	}
	sPeak, mPeak := stream.Extra["peak-B/op"], materialized.Extra["peak-B/op"]
	if sPeak <= 0 || mPeak < 10*sPeak {
		t.Errorf("peak flow memory %v vs %v: want ≥10× reduction", sPeak, mPeak)
	}
}

// BenchmarkTelemetryOverhead pins the cost of the telemetry layer on
// the hot path: the same Fig. 7-scale lazy emulation runs with
// tracing, flight recording, and the metrics registry fully enabled
// (TraceSample=1, every root kept) and fully disabled, and the
// relative slowdown is reported as two metrics, both gated at an
// absolute ceiling of 3% in cmd/bench: the registry reads existing
// counters only at snapshot time and spans are minted only on ordered
// control-plane events, so enabling observability must stay in the
// noise of the emulation itself.
//
// alloc-overhead-pct is the relative growth in heap allocations
// (runtime Mallocs) with telemetry on. The emulation is deterministic,
// so this number is exactly reproducible across machines — it is the
// metric CI enforces (-gatemetrics allocs), for the same reason the
// baseline gates only compare allocs/op there: a shared single-core
// runner cannot time anything to 3%. allocs-per-run is the enabled
// arm's allocation count for one emulation, which cmd/bench gates
// against the previous report in place of the benchmark's own
// allocs/op — that column sums over however many measurement blocks
// the box's noise made the benchmark run.
//
// overhead-pct is the relative growth in process CPU time, enforced on
// local full-gate runs (-gatemetrics includes ns). Measurement: rusage
// CPU time, not wall clock — wall-clock deltas of identical code carry
// ±10% of preemption noise, while CPU time only charges the cycles
// this process burned (GC included, which is exactly where a leaky
// telemetry layer would show up). The arms run as alternating
// (disabled, enabled) runs and the reported overhead is the ratio of
// the per-arm MINIMUM CPU times: contamination on a shared box is
// one-sided — co-tenant bursts, frequency throttling, and GC
// scheduling only ever inflate a run's CPU, never deflate it — so each
// arm's minimum over several short runs (a 4 h horizon, ~1 s of CPU
// each) converges on the arm's true cost from above, where a mean or
// median would keep a bias proportional to how busy the box was. A
// sustained noisy phase can still straddle a whole block, so up to six
// blocks run and the lowest block wins; a block already clearly under
// the ceiling ends the measurement early (quiet-window blocks on this
// class of box read the true sub-2% cost, contaminated ones read
// 3-6%, so the early-stop threshold also marks the split).
func BenchmarkTelemetryOverhead(b *testing.B) {
	const (
		reps   = 7
		blocks = 6
	)
	cpuSeconds := func() float64 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			b.Fatal(err)
		}
		return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	run := func(traceSample float64, flightDepth int) (cpu float64, allocs uint64) {
		s, err := trace.NewStream(trace.RealLikeConfig(50_000, 1))
		if err != nil {
			b.Fatal(err)
		}
		// Collect the previous arm's garbage outside the timed
		// region: back-to-back runs otherwise charge run N's floating
		// garbage to run N+1's GC, which is exactly the kind of
		// cross-arm contamination a 3% ceiling cannot absorb.
		runtime.GC()
		m0 := mallocs()
		start := cpuSeconds()
		if _, err := eval.RunEmulation(eval.EmulationConfig{
			Source:      s,
			Mode:        controller.ModeLazy,
			Dynamic:     true,
			Horizon:     4 * time.Hour,
			Seed:        1,
			TraceSample: traceSample,
			FlightDepth: flightDepth,
		}); err != nil {
			b.Fatal(err)
		}
		cpu = cpuSeconds() - start
		return cpu, mallocs() - m0
	}
	var pct, allocPct float64
	var offAllocs, onAllocs uint64
	for i := 0; i < b.N; i++ {
		pct = math.Inf(1)
		for blk := 0; blk < blocks; blk++ {
			minOff, minOn := math.Inf(1), math.Inf(1)
			for r := 0; r < reps; r++ {
				off, offA := run(0, -1)
				if off < minOff {
					minOff = off
				}
				on, onA := run(1, 16)
				if on < minOn {
					minOn = on
				}
				offAllocs, onAllocs = offA, onA
			}
			allocPct = 100 * (float64(onAllocs)/float64(offAllocs) - 1)
			if p := 100 * (minOn/minOff - 1); p < pct {
				pct = p
				if i == 0 {
					b.Logf("block %d: min CPU off=%.3fs on=%.3fs: overhead %.2f%% (allocs off=%d on=%d: +%.2f%%)",
						blk, minOff, minOn, p, offAllocs, onAllocs, allocPct)
				}
			}
			if pct <= 2.5 {
				break
			}
		}
	}
	b.ReportMetric(pct, "overhead-pct")
	b.ReportMetric(allocPct, "alloc-overhead-pct")
	b.ReportMetric(float64(onAllocs), "allocs-per-run")
}

// BenchmarkHostSamplingBias measures the learning-baseline latency
// bias that host-level sampling removes (ROADMAP "estimator fidelity"
// carry-over; docs/emulation.md). The learning baseline locates hosts
// passively — a destination is known only after it has sent — so a
// packet toward a never-sampled sender rides the §V-E flood path
// (~15 ms) forever instead of a warm rule. Pair sampling silences
// destinations: a kept pair's far end keeps each of its own outbound
// pairs only with probability p. Host sampling keeps a kept
// endpoint's complete fan-out within the kept subpopulation, so each
// outbound pair survives with q = √p instead — at p = 0.1 a silenced
// destination is ~3× likelier per outbound pair under pair sampling,
// and the measured silenced-packet share drops accordingly (without
// vanishing: a kept host whose every peer is unkept still never
// sends). The probe is
// deterministic and DES-free (single-seed emulations at CI scale
// drown the effect in replay noise): it replays the Fig. 7 trace
// through both samplers and measures the share of injected packets
// addressed to a silenced destination — a host that sends in the full
// trace but never as a sampled source. Each engine's excess over the
// full population's share, in percentage points averaged over sampler
// seeds, lands in the trajectory file as pair-bias-pct and
// host-bias-pct; the wall clock is gated alongside the other
// benchmarks.
func BenchmarkHostSamplingBias(b *testing.B) {
	s, err := trace.NewStream(trace.RealLikeConfig(50_000, 1))
	if err != nil {
		b.Fatal(err)
	}
	info := s.Info()
	var flows []trace.Flow
	for w := 0; w < info.Windows; w++ {
		flows = s.GenWindow(w, flows)
	}
	// silencedShare: of the packets the sampler injects, the fraction
	// addressed to a destination that never appears as an injected
	// source. keep == nil replays the full population.
	silencedShare := func(keep func(a, b model.HostID) bool) float64 {
		sends := make(map[model.HostID]bool)
		for _, f := range flows {
			if keep == nil || keep(f.Src, f.Dst) {
				sends[f.Src] = true
			}
		}
		var silenced, total float64
		for _, f := range flows {
			if keep != nil && !keep(f.Src, f.Dst) {
				continue
			}
			total += float64(f.Packets)
			if !sends[f.Dst] {
				silenced += float64(f.Packets)
			}
		}
		if total == 0 {
			return 0
		}
		return silenced / total
	}
	const (
		p     = 0.1
		seeds = 10
	)
	var pairBias, hostBias float64
	for i := 0; i < b.N; i++ {
		full := silencedShare(nil)
		var pair, host float64
		for seed := uint64(1); seed <= seeds; seed++ {
			pair += silencedShare(replay.NewPairSampler(p, seed).Keep)
			host += silencedShare(replay.NewHostSampler(math.Sqrt(p), seed).Keep)
		}
		pair, host = pair/seeds, host/seeds
		pairBias, hostBias = 100*(pair-full), 100*(host-full)
		if i == 0 {
			b.Logf("silenced-destination packet share: full %.4f, pair-sampled %.4f (+%.2fpp), host-sampled %.4f (+%.2fpp)",
				full, pair, pairBias, host, hostBias)
		}
	}
	b.ReportMetric(pairBias, "pair-bias-pct")
	b.ReportMetric(hostBias, "host-bias-pct")
}
