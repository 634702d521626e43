package main

import "strings"

// metricDef declares one metric the benchmark prints. BENCHMARK.json lists
// the same names (main_test.go checks the two sets are equal). README.md
// says of each whether it is host time or a count of the modelled data
// center, and which end-to-end number it is predicted to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
	// Quality marks a paper-axis metric: what the modelled data center
	// experiences. It guards a faster run that models a worse data center,
	// repeats exactly for a seed, and is held to the recorded baseline.
	Quality bool
	// Driver marks a unit cost from a layer driver: the same whichever
	// workload is traced.
	Driver bool
}

// layers are the repo's packages, in the order the tables print them.
// model, tenant and failover hold shared vocabulary and are transparent to
// the profile folder: their samples go to the calling layer.
var layers = []string{
	"sim", "netsim", "openflow", "bloom", "fib", "edge", "controller",
	"grouping", "graph", "trace", "replay", "telemetry", "metrics", "chaos", "eval",
}

// runtimeLayer takes the samples with no frame in any layer: background
// GC workers, the profiler, and the benchmark's own loop.
const runtimeLayer = "runtime"

// shareLayers are the rows of a profile's share table.
var shareLayers = append(append([]string{}, layers...), runtimeLayer)

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.2},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.2},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of the traced run, all named <layer>.<name>.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	// Self-time and allocation shares of the unmodified run.
	for _, what := range []string{"cpu", "alloc"} {
		for _, l := range shareLayers {
			add(shareName(l, what), "%", "lower")
		}
	}
	// Paper-axis quality of the modelled data center.
	quality := func(name, unit string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: "lower", Quality: true})
	}
	quality("metrics.ctrl_req_per_kop", "count")
	quality("metrics.cold_setup_ms_p50", "ms")
	quality("metrics.cold_setup_ms_p99", "ms")
	quality("replay.undelivered_pct", "%")
	quality("chaos.recovery_rounds", "count")
	quality("edge.degraded_s", "s")
	quality("grouping.winter_pct", "%")
	// Work counts.
	add("sim.events_per_op", "count", "lower")
	add("netsim.msgs_per_op", "count", "lower")
	add("netsim.drops_per_kop", "count", "lower")
	add("openflow.ctrl_msgs_per_op", "count", "lower")
	add("openflow.wire_bytes_per_op", "B", "lower")
	add("edge.packets_per_op", "count", "lower")
	add("edge.slowpath_pct", "%", "lower")
	add("edge.encap_per_op", "count", "lower")
	add("edge.idle_refreshes_per_op", "count", "lower")
	add("edge.degraded_floods_per_kop", "count", "lower")
	add("controller.packetins_per_op", "count", "lower")
	add("controller.flowmods_per_op", "count", "lower")
	add("controller.state_reports_per_op", "count", "lower")
	add("controller.preload_fulls_per_op", "count", "lower")
	add("controller.push_retries", "count", "lower")
	add("controller.regroupings", "count", "lower")
	add("controller.takeover_rounds", "count", "lower")
	add("replay.injected_share_pct", "%", "lower")
	add("telemetry.spans_per_op", "count", "lower")
	add("telemetry.overhead_pct", "%", "lower")
	add("bench.profile_overhead_pct", "%", "lower")
	add("bench.cpu_samples", "count", "higher")
	// Unit costs from the layer drivers.
	unit := func(names ...string) {
		for _, n := range names {
			u := "ns"
			switch {
			case strings.HasSuffix(n, "_ms"), strings.Contains(n, "_ms_"):
				u = "ms"
			case strings.HasSuffix(n, "_us"):
				u = "us"
			}
			out = append(out, metricDef{Name: n, Unit: u, Better: "lower", Driver: true})
		}
	}
	unit("sim.event_ns", "sim.timer_stop_ns", "sim.elide_round_ns", "netsim.send_deliver_ns",
		"openflow.codec_packetin_ns", "openflow.codec_packetinburst_ns", "openflow.codec_flowmod_ns",
		"openflow.codec_groupconfig_ns", "openflow.codec_gfibupdate_ns", "openflow.codec_gfibdelta_ns",
		"openflow.codec_statereport_ns", "openflow.codec_keepalive_ns")
	unit("bloom.add_ns", "bloom.test_ns", "bloom.diffwords_ns", "bloom.applywords_ns", "fib.gfib_query_ns",
		"fib.gfib_apply_delta_ns", "fib.clib_locate_ns", "fib.clib_apply_lfib_ns", "fib.lfib_learn_ns", "fib.lfib_lookup_ns",
		"edge.flowhit_ns", "edge.local_deliver_ns", "edge.gfib_encap_ns", "edge.escalate_ns", "edge.remote_decap_ns")
	unit("controller.packetin_lazy_ns", "controller.packetin_learning_ns", "controller.state_report_ns",
		"controller.burst_ns_per_packetin", "controller.burst_ms_p50", "controller.burst_ms_p90")
	unit("grouping.inigroup_ms", "grouping.incupdate_ms", "grouping.intensity_add_ns",
		"graph.partition_kway_ms", "graph.bisect_ms", "graph.mincut_ms")
	unit("trace.gen_ns_per_flow", "trace.intensity_ns_per_flow")
	unit("trace.agg_ns_per_pair",
		"replay.fluid_fold_ns_per_flow", "replay.fluidagg_fold_ns_per_pair", "replay.sampler_keep_ns")
	unit("telemetry.span_ns", "telemetry.flight_record_ns", "telemetry.registry_snapshot_us")
	unit("metrics.record_latency_ns")
	return out
}

// shareName is the per-layer metric a layer's profile share is printed as.
func shareName(layer, what string) string {
	if layer == runtimeLayer {
		return layer + ".bg_" + what + "_pct"
	}
	return layer + "." + what + "_pct"
}
