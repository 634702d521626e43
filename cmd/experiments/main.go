// Command experiments regenerates every table and figure of the
// LazyCtrl evaluation (§V): Table II, Fig. 6(a), Fig. 6(b), Fig. 7,
// Fig. 8, Fig. 9, the §V-E cold-cache comparison, and the §V-D storage
// analysis — plus the chaos cascade differential of docs/robustness.md.
//
// Usage:
//
//	experiments -run all            # everything (slow)
//	experiments -run tableII
//	experiments -run fig6a,fig6b
//	experiments -run fig7 -scale 5000
//	experiments -run fig7 -engine fluid -scale 1   # the paper run
//	experiments -run coldcache,storage
//	experiments -run chaos
//	experiments -run failover
//
// Scale divides the paper's flow counts; 5000 replays ≈54k real-trace
// flows and is faithful, larger values run faster.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lazyctrl/internal/chaos"
	"lazyctrl/internal/eval"
)

// runNames are the values -run accepts.
var runNames = []string{"all", "tableII", "fig6a", "fig6b", "fig7", "fig8", "fig9", "coldcache", "storage", "chaos", "failover"}

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiments: "+strings.Join(runNames[1:], ","))
	scale := flag.Int("scale", 5000, "divisor applied to the paper's flow counts (1 = paper scale; use -engine sampled/fluid)")
	seed := flag.Uint64("seed", 1, "random seed")
	cli := eval.RegisterCLI(nil)
	flag.Parse()
	eval.ExitOnUsage(cli.Validate())

	want := map[string]bool{}
	for _, name := range strings.Split(*runFlag, ",") {
		name = strings.TrimSpace(name)
		eval.ExitOnUsage(eval.Choice("run", name, runNames...))
		want[strings.ToLower(name)] = true
	}
	all := want["all"]
	var fig789 *eval.Fig789Result

	runErr := func(name string, fn func() error) {
		if !all && !want[strings.ToLower(name)] {
			return
		}
		fmt.Printf("\n=== %s ===\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
	}

	runErr("TableII", func() error {
		rows, err := eval.TableII(*scale, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %12s %12s %10s %10s %4s %4s\n",
			"Trace", "paper flows", "gen flows", "centr.", "paper c.", "p", "q")
		for _, r := range rows {
			fmt.Printf("%-6s %12d %12d %10.3f %10.2f %4d %4d\n",
				r.Name, r.PaperFlows, r.MeasuredFlows, r.AvgCentrality, r.PaperC, r.P, r.Q)
		}
		return nil
	})

	runErr("Fig6a", func() error {
		points, err := eval.Fig6a(*scale*6, *seed, []int{5, 10, 20, 40, 60, 80, 100, 120, 140})
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %8s %12s\n", "Trace", "groups", "Winter (%)")
		for _, p := range points {
			fmt.Printf("%-6s %8d %12.1f\n", p.Trace, p.Groups, p.WinterPct)
		}
		return nil
	})

	runErr("Fig6b", func() error {
		points, err := eval.Fig6b(*scale*6, *seed, []int{50, 100, 200, 300, 400, 500, 600})
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %10s %14s %14s\n", "Trace", "limit", "IniGroup", "IncUpdate")
		for _, p := range points {
			fmt.Printf("%-6s %10d %14v %14v\n",
				p.Trace, p.SizeLimit, p.Elapsed.Round(time.Millisecond), p.IncElapsed.Round(time.Millisecond))
		}
		return nil
	})

	if all || want["fig7"] || want["fig8"] || want["fig9"] || cli.Dumps() {
		fmt.Printf("\n=== Fig7/8/9 emulations (scale %d, engine %s) ===\n", *scale, cli.Engine())
		start := time.Now()
		res, err := eval.RunFig789(cli.Fig789(eval.Fig789Config{Scale: *scale, Seed: *seed}))
		if err == nil {
			// Exposition: the telemetry of the real-trace static-grouping
			// series (the paper's headline configuration).
			err = cli.Dump(res.Series[eval.SeriesRealStatic])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig789: %v\n", err)
			os.Exit(1)
		}
		fig789 = res
		fmt.Printf("(5 emulations in %v)\n", time.Since(start).Round(time.Millisecond))
	}

	seriesOrder := []string{
		eval.SeriesOpenFlow, eval.SeriesRealStatic, eval.SeriesRealDynamic,
		eval.SeriesExpandedStatic, eval.SeriesExpandedDynamic,
	}

	if fig789 != nil && (all || want["fig7"]) {
		fmt.Printf("\n=== Fig7: controller workload (Krps per 2h bucket) ===\n")
		fmt.Printf("%-28s", "series")
		for h := 0; h < 12; h++ {
			fmt.Printf(" %5d-%d", 2*h, 2*h+2)
		}
		fmt.Println()
		for _, name := range seriesOrder {
			r := fig789.Series[name]
			fmt.Printf("%-28s", name)
			for _, v := range r.WorkloadKrps {
				fmt.Printf(" %7.2f", v)
			}
			fmt.Println()
		}
		fmt.Printf("\nworkload reductions vs OpenFlow: real static %.0f%%, real dynamic %.0f%%, expanded static %.0f%%, expanded dynamic %.0f%%\n",
			100*fig789.ReductionRealStatic, 100*fig789.ReductionRealDynamic,
			100*fig789.ReductionExpandedStatic, 100*fig789.ReductionExpandedDynamic)
		fmt.Println("(paper: 61%–82% across cases)")
	}

	if fig789 != nil && (all || want["fig8"]) {
		fmt.Printf("\n=== Fig8: grouping updates per hour ===\n")
		for _, name := range []string{eval.SeriesRealDynamic, eval.SeriesExpandedDynamic} {
			r := fig789.Series[name]
			fmt.Printf("%-28s %v (total %d)\n", name, r.UpdatesPerHour, r.Recorder.TotalUpdates())
		}
		fmt.Println("(paper: ≈10/h on the real trace, ≤34/h on the expanded trace)")
	}

	if fig789 != nil && (all || want["fig9"]) {
		fmt.Printf("\n=== Fig9: steady-state latency (ms per 2h bucket) ===\n")
		for _, name := range []string{eval.SeriesOpenFlow, eval.SeriesRealStatic} {
			r := fig789.Series[name]
			fmt.Printf("%-28s", name)
			for _, v := range r.AvgLatencyMs {
				fmt.Printf(" %6.3f", v)
			}
			fmt.Println()
		}
		of := eval.Mean(fig789.Series[eval.SeriesOpenFlow].AvgLatencyMs)
		lz := eval.Mean(fig789.Series[eval.SeriesRealStatic].AvgLatencyMs)
		if of > 0 {
			fmt.Printf("average reduction: %.0f%% (paper: ≈10%%)\n", 100*(1-lz/of))
		}
	}

	runErr("ColdCache", func() error {
		res, err := eval.ColdCache(*seed)
		if err != nil {
			return err
		}
		fmt.Printf("LazyCtrl intra-group: %8v   (paper: 0.83 ms)\n", res.LazyIntra.Round(time.Microsecond))
		fmt.Printf("LazyCtrl inter-group: %8v   (paper: 5.38 ms)\n", res.LazyInter.Round(time.Microsecond))
		fmt.Printf("OpenFlow:             %8v   (paper: 15.06 ms)\n", res.OpenFlow.Round(time.Microsecond))
		return nil
	})

	runErr("Chaos", func() error {
		res, err := eval.ChaosDifferential(*seed, false, chaos.Cascade(1, 30*time.Minute))
		if err != nil {
			return err
		}
		f := res.Faulted
		fmt.Printf("cascade: group loss storm + control partition + designated crash (docs/robustness.md)\n")
		fmt.Printf("drops by cause: loss=%d partition=%d down-at-send=%d down-at-delivery=%d no-route=%d\n",
			f.Drops.InjectedLoss, f.Drops.Partition, f.Drops.DownAtSend, f.Drops.DownAtDelivery, f.Drops.NoRoute)
		fmt.Printf("degraded mode:  floods=%d window=%v\n", f.DegradedFloods, f.DegradedWindow.Round(time.Millisecond))
		fmt.Printf("recovery:       %d rounds (bound %d), converged=%v, stale adoptions=%d\n",
			f.RecoveryRounds, chaos.DefaultRecoveryRoundBound, f.Converged, len(f.StaleAdoptions))
		fmt.Printf("fixpoint:       byte-identical to fault-free run: %v\n", res.FixpointMatch)
		if !f.Converged || !res.FixpointMatch {
			for _, d := range f.Divergences {
				fmt.Printf("  divergence: %s\n", d)
			}
			return fmt.Errorf("cascade did not return to the fault-free fixpoint")
		}
		return nil
	})

	runErr("Failover", func() error {
		const faultAt = 30 * time.Minute
		const round = 10 * time.Second
		rounds := func(d time.Duration) int {
			if d <= 0 {
				return 0
			}
			return int((d + round - 1) / round)
		}
		res, err := eval.ChaosDifferential(*seed, true, eval.FailoverPlans(faultAt)[0])
		if err != nil {
			return err
		}
		f := res.Faulted
		fmt.Printf("scenario: master replica crash at %v, healed %v later, switch crash 1m earlier (docs/robustness.md#failover)\n",
			faultAt, 12*time.Minute)
		for i, tl := range f.TakeoverTimelines {
			fmt.Printf("takeover #%d -> generation %d\n", i+1, tl.Generation)
			fmt.Printf("  detection: %8v after the fault  (%d rounds; 3 missed 1m keep-alives)\n",
				(tl.DetectedAt - faultAt).Round(time.Second), rounds(tl.DetectedAt-faultAt))
			fmt.Printf("  announce:  %8v after detection  (%d rounds; RoleAnnounce broadcast)\n",
				(tl.AnnouncedAt - tl.DetectedAt).Round(time.Second), rounds(tl.AnnouncedAt-tl.DetectedAt))
			if tl.RebuiltAt > 0 {
				fmt.Printf("  rebuild:   %8v after announce   (%d rounds; fresh designated report per group)\n",
					(tl.RebuiltAt - tl.AnnouncedAt).Round(time.Second), rounds(tl.RebuiltAt-tl.AnnouncedAt))
			}
			if tl.RepushedAt > 0 {
				fmt.Printf("  re-push:   %8v after announce   (%d rounds; every group config re-acked)\n",
					(tl.RepushedAt - tl.AnnouncedAt).Round(time.Second), rounds(tl.RepushedAt-tl.AnnouncedAt))
			}
		}
		fmt.Printf("fence:          stale pushes rejected=%d, dup escalations suppressed=%d, reflushed=%d\n",
			f.StaleGenRejected, f.DupEscalationsSuppressed, f.EscalationsReflushed)
		fmt.Printf("role handoff:   takeovers=%d step-downs=%d (healed stale master demoted and re-synced)\n",
			f.Takeovers, f.StepDowns)
		fmt.Printf("degraded mode:  floods=%d window=%v\n", f.DegradedFloods, f.DegradedWindow.Round(time.Millisecond))
		fmt.Printf("recovery:       %d rounds (bound %d), converged=%v, stale adoptions=%d\n",
			f.RecoveryRounds, chaos.DefaultRecoveryRoundBound, f.Converged, len(f.StaleAdoptions))
		fmt.Printf("fixpoint:       byte-identical to fault-free replicated run: %v\n", res.FixpointMatch)
		if !f.Converged || !res.FixpointMatch {
			for _, d := range f.Divergences {
				fmt.Printf("  divergence: %s\n", d)
			}
			return fmt.Errorf("failover did not return to the fault-free fixpoint")
		}
		return nil
	})

	runErr("Storage", func() error {
		rows := eval.Storage([]int{10, 20, 46, 100, 200, 600}, 24)
		fmt.Printf("%10s %14s %12s\n", "group size", "G-FIB bytes", "FP rate")
		for _, r := range rows {
			fmt.Printf("%10d %14d %11.4f%%\n", r.GroupSize, r.GFIBBytes, 100*r.FPP)
		}
		fmt.Println("(paper: 46 switches → 92,160 bytes, FP < 0.1%)")
		return nil
	})
}
