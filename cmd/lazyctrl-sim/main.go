// Command lazyctrl-sim runs a full trace-driven emulation of the
// LazyCtrl prototype (or the OpenFlow baseline) and prints the
// controller workload, latency, and grouping-update summary.
//
// Usage:
//
//	lazyctrl-sim -mode lazy -dynamic -scale 5000
//	lazyctrl-sim -mode openflow -scale 5000
//	lazyctrl-sim -engine fluid -scale 1        # paper scale (271M flows)
//	lazyctrl-sim -engine sampled -p 0.01 -scale 100
//
// Every run uses per-flow reactive rules, and -engine fluid means the
// aggregate population fold plus the control fold: the paper
// configuration (docs/emulation.md, "Mode matrix").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/eval"
	"lazyctrl/internal/replay"
	"lazyctrl/internal/trace"
)

func main() {
	cli := trace.RegisterCLI(nil, "real", 5000)
	run := eval.RegisterCLI(nil)
	mode := flag.String("mode", "lazy", "control plane: lazy or openflow")
	dynamic := flag.Bool("dynamic", false, "incremental regrouping under drift")
	expanded := flag.Bool("expanded", false, "use the +30% expanded trace")
	limit := flag.Int("limit", 46, "group size limit")
	hours := flag.Int("hours", 24, "horizon in hours")
	flag.Parse()
	eval.ExitOnUsage(run.Validate(), eval.Choice("mode", *mode, "lazy", "openflow"))

	src := cli.MustStream()
	if *expanded {
		var err error
		src, err = trace.ExpandStream(src, 0.30, 8, 24, cli.Seed()^0xe)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	m := controller.ModeLazy
	if strings.EqualFold(*mode, "openflow") {
		m = controller.ModeLearning
	}
	info := src.Info()
	fmt.Printf("emulating %s (%d flows streamed in %d windows of ≤%d, %d switches, %d hosts), mode=%s dynamic=%v limit=%d horizon=%dh engine=%s\n",
		info.Name, info.TotalFlows, info.Windows, info.MaxWindowFlows,
		len(info.Directory.Switches()), info.Directory.NumHosts(),
		*mode, *dynamic, *limit, *hours, run.Engine())

	start := time.Now()
	res, err := eval.RunEmulation(run.Emulation(eval.EmulationConfig{
		Source:         src,
		Mode:           m,
		Dynamic:        *dynamic,
		GroupSizeLimit: *limit,
		Horizon:        time.Duration(*hours) * time.Hour,
		Seed:           cli.Seed(),
	}))
	if err == nil {
		err = run.Dump(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("emulation completed in %v (%d sim events)\n\n",
		time.Since(start).Round(time.Millisecond), res.SimEvents)

	fmt.Printf("flows injected/delivered: %d/%d", res.FlowsInjected, res.FlowsDelivered)
	if res.Engine != replay.EngineDES {
		fmt.Printf(" (p=%g of a %d-flow population)", res.SampleProb, res.PopulationFlows)
	}
	fmt.Println()
	fmt.Printf("controller workload (Krps, unscaled estimate) per 2h bucket:\n  ")
	for _, v := range res.WorkloadKrps {
		fmt.Printf("%6.2f", v)
	}
	if res.WorkloadStdErrKrps != nil {
		fmt.Printf("\n  ±1σ sampling error:\n  ")
		for _, v := range res.WorkloadStdErrKrps {
			fmt.Printf("%6.2f", v)
		}
	}
	fmt.Printf("\naverage forwarding latency (ms) per 2h bucket:\n  ")
	for _, v := range res.AvgLatencyMs {
		fmt.Printf("%6.3f", v)
	}
	fmt.Printf("\ncold-cache first-packet latency: %v (q50 %v, q90 %v)\n",
		res.ColdCacheLatency.Round(time.Microsecond),
		res.Recorder.ColdLatencyQuantile(0.5).Round(time.Microsecond),
		res.Recorder.ColdLatencyQuantile(0.9).Round(time.Microsecond))
	if res.BatchDelayObserved > 0 {
		fmt.Printf("micro-batching delay: observed %v, modeled %v\n",
			res.BatchDelayObserved.Round(time.Microsecond),
			res.BatchDelayModeled.Round(time.Microsecond))
	}
	if m == controller.ModeLazy {
		fmt.Printf("groups: %d, grouping updates per hour: %v\n", res.FinalGroups, res.UpdatesPerHour)
	}
	st := res.ControllerStats
	fmt.Printf("controller: packetIns=%d arpRelays=%d stateReports=%d floods=%d flowMods=%d regroupings=%d unresolved=%d\n",
		st.PacketIns, st.ARPRelays, st.StateReports, st.Floods, st.FlowModsSent, st.Regroupings, st.Unresolved)
}
