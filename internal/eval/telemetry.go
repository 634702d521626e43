package eval

import (
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/edge"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/rig"
	"lazyctrl/internal/telemetry"
)

// This file wires the emulation stack to internal/telemetry: the
// unified metrics registry (re-homing the scattered edge/controller/
// underlay counters as snapshot-time Func gauges — the hot paths are
// untouched), the per-node flight recorders hanging off the underlay's
// Observer hook, and the absorption of controller takeover timelines
// into failover span trees. Naming conventions: docs/observability.md.

// registerMetrics re-homes the stack's counters onto a registry. Every
// instrument is a Func gauge reading the owning struct at snapshot
// time, so registration costs the run nothing; the EmulationResult
// fields stay populated as before and remain the compatible view.
func registerMetrics(reg *telemetry.Registry, r *rig.Rig, tracer *telemetry.Tracer, res *EmulationResult) {
	ctrl, switches, net := r.Primary(), r.Edges(), r.Net()
	cf := func(name, help string, fn func(controller.Stats) uint64) {
		reg.Func(name, help, func() float64 { return float64(fn(ctrl.Stats())) })
	}
	cf("lazyctrl_ctrl_packetins_total", "PacketIns the controller handled", func(s controller.Stats) uint64 { return s.PacketIns })
	cf("lazyctrl_ctrl_flowmods_total", "flow rules installed", func(s controller.Stats) uint64 { return s.FlowModsSent })
	cf("lazyctrl_ctrl_packetouts_total", "buffered packets returned", func(s controller.Stats) uint64 { return s.PacketOuts })
	cf("lazyctrl_ctrl_floods_total", "learning-mode floods", func(s controller.Stats) uint64 { return s.Floods })
	cf("lazyctrl_ctrl_arp_relays_total", "scoped ARP relays", func(s controller.Stats) uint64 { return s.ARPRelays })
	cf("lazyctrl_ctrl_state_reports_total", "designated state reports merged", func(s controller.Stats) uint64 { return s.StateReports })
	cf("lazyctrl_ctrl_regroupings_total", "effective (re)groupings", func(s controller.Stats) uint64 { return s.Regroupings })
	cf("lazyctrl_ctrl_config_acks_total", "GroupConfig acks received", func(s controller.Stats) uint64 { return s.ConfigAcks })
	cf("lazyctrl_ctrl_push_retries_total", "supervised config re-pushes", func(s controller.Stats) uint64 { return s.PushRetries })
	cf("lazyctrl_ctrl_pushes_skipped_total", "push-round destinations already current", func(s controller.Stats) uint64 { return s.PushesSkipped })
	cf("lazyctrl_ctrl_preload_fulls_total", "preload filters pushed in full", func(s controller.Stats) uint64 { return s.PreloadFulls })
	cf("lazyctrl_ctrl_preload_deltas_total", "preload filters pushed as word deltas", func(s controller.Stats) uint64 { return s.PreloadDeltas })
	cf("lazyctrl_ctrl_keepalive_lost_total", "keep-alive deadlines missed", func(s controller.Stats) uint64 { return s.KeepAliveLost })
	cf("lazyctrl_ctrl_takeovers_total", "standby takeovers on this replica", func(s controller.Stats) uint64 { return s.Takeovers })

	ef := func(name, help string, fn func(edge.Stats) uint64) {
		reg.Func(name, help, func() float64 {
			var sum uint64
			for _, sw := range switches {
				sum += fn(sw.Stats())
			}
			return float64(sum)
		})
	}
	ef("lazyctrl_edge_packets_seen_total", "data-plane packets seen by edges", func(s edge.Stats) uint64 { return s.PacketsSeen })
	ef("lazyctrl_edge_delivered_total", "packets delivered to attached hosts", func(s edge.Stats) uint64 { return s.Delivered })
	ef("lazyctrl_edge_packetins_total", "escalations sent by edges", func(s edge.Stats) uint64 { return s.PacketIns })
	ef("lazyctrl_edge_packetin_bursts_total", "micro-batched escalation bursts", func(s edge.Stats) uint64 { return s.PacketInBursts })
	ef("lazyctrl_edge_encap_sent_total", "G-FIB encap forwards", func(s edge.Stats) uint64 { return s.EncapSent })
	ef("lazyctrl_edge_degraded_floods_total", "degraded-mode group floods", func(s edge.Stats) uint64 { return s.DegradedFloods })
	ef("lazyctrl_edge_idle_refreshes_total", "idle version beacons (real + credited)", func(s edge.Stats) uint64 { return s.IdleRefreshes })
	ef("lazyctrl_edge_stale_gen_rejected_total", "pushes rejected by the generation fence", func(s edge.Stats) uint64 { return s.StaleGenRejected })
	ef("lazyctrl_edge_dup_escalations_total", "duplicate escalations suppressed", func(s edge.Stats) uint64 { return s.DupEscalationsSuppressed })
	ef("lazyctrl_edge_escalations_reflushed_total", "pending escalations re-sent post-takeover", func(s edge.Stats) uint64 { return s.EscalationsReflushed })
	reg.Func("lazyctrl_edge_degraded_window_seconds", "total wall time edges spent degraded", func() float64 {
		var sum time.Duration
		for _, sw := range switches {
			sum += sw.Stats().DegradedWindow
		}
		return sum.Seconds()
	})

	reg.Func("lazyctrl_net_delivered_total", "messages the underlay delivered", func() float64 { return float64(net.Delivered) })
	df := func(name, help string, fn func(netsim.DropStats) uint64) {
		reg.Func(name, help, func() float64 { return float64(fn(net.Drops)) })
	}
	df("lazyctrl_net_drops_down_at_send_total", "drops: endpoint/link down at send", func(d netsim.DropStats) uint64 { return d.DownAtSend })
	df("lazyctrl_net_drops_down_at_delivery_total", "drops: receiver down at delivery", func(d netsim.DropStats) uint64 { return d.DownAtDelivery })
	df("lazyctrl_net_drops_injected_loss_total", "drops: injected loss", func(d netsim.DropStats) uint64 { return d.InjectedLoss })
	df("lazyctrl_net_drops_partition_total", "drops: active partition", func(d netsim.DropStats) uint64 { return d.Partition })

	reg.Func("lazyctrl_replay_flows_injected_total", "first packets the DES carried", func() float64 { return float64(res.FlowsInjected) })
	reg.Func("lazyctrl_replay_flows_delivered_total", "first packets delivered end to end", func() float64 { return float64(res.FlowsDelivered) })

	if tracer != nil {
		reg.Func("lazyctrl_trace_spans_kept_total", "root spans kept by head sampling", func() float64 { return float64(tracer.Kept.Value()) })
		reg.Func("lazyctrl_trace_spans_dropped_total", "root spans dropped by head sampling", func() float64 { return float64(tracer.Dropped.Value()) })
		reg.Func("lazyctrl_trace_spans_completed_total", "completed spans held for dump", func() float64 { return float64(tracer.Len()) })
	}
}

// flightEvent extracts the flight-recorder coordinates of one
// control-plane message. It runs twice per wire event (send and
// delivery) on every control message of a run — ~2M times in a Fig7
// emulation — so the cases are ordered by measured steady-state
// frequency (keep-alives are >80% of wire events, state reports and
// G-FIB deltas most of the rest) and event types are stored as the
// wire MsgType code (openflow registers the render names with
// telemetry at init; TestFlightEventNamesMatchWire pins the mapping),
// keeping the event pointer-free and the hot path free of dynamic
// dispatch. The rare second return is false for a non-control
// message (the underlay excludes data-plane packets already; this is
// defense against new message kinds).
func flightEvent(at time.Duration, msg netsim.Message) (telemetry.FlightEvent, bool) {
	ev := telemetry.FlightEvent{At: at}
	switch m := msg.(type) {
	case *openflow.KeepAlive:
		ev.Type, ev.Gen = uint8(openflow.TypeKeepAlive), m.Generation
	case *openflow.StateReport:
		ev.Type = uint8(openflow.TypeStateReport)
	case *openflow.GFIBDelta:
		ev.Type, ev.Gen, ev.Ver = uint8(openflow.TypeGFIBDelta), m.Generation, m.Version
	case *openflow.ConfigAck:
		ev.Type, ev.Ver = uint8(openflow.TypeConfigAck), m.Version
	case *openflow.GFIBUpdate:
		ev.Type, ev.Gen, ev.Ver = uint8(openflow.TypeGFIBUpdate), m.Generation, m.Version
	case *openflow.Batch:
		ev.Type, ev.Gen = uint8(openflow.TypeBatch), m.Generation
	case *openflow.GroupConfig:
		ev.Type, ev.Gen, ev.Ver = uint8(openflow.TypeGroupConfig), m.Generation, m.Version
	case *openflow.PacketIn:
		ev.Type, ev.Span = uint8(openflow.TypePacketIn), m.Span.Span
	case *openflow.PacketOut:
		ev.Type, ev.Span = uint8(openflow.TypePacketOut), m.Span.Span
	case *openflow.FlowMod:
		ev.Type, ev.Span = uint8(openflow.TypeFlowMod), m.Span.Span
	case *openflow.LFIBUpdate:
		ev.Type, ev.Gen, ev.Ver = uint8(openflow.TypeLFIBUpdate), m.Generation, m.Version
	case *openflow.RoleAnnounce:
		ev.Type, ev.Gen = uint8(openflow.TypeRoleAnnounce), m.Generation
	case *openflow.StateSyncRecord:
		ev.Type, ev.Gen, ev.Ver = uint8(openflow.TypeStateSyncRecord), m.Generation, m.GroupingVersion
	default:
		om, ok := msg.(openflow.Message)
		if !ok {
			return ev, false
		}
		ev.Type = uint8(om.MsgType())
	}
	return ev, true
}

// flightTable resolves an edge switch ID to its flight ring on the
// observer hot path and for the chaos post-mortems' tails. Edge switch
// IDs are small and dense, so a lookup is one bounds check and a slice
// load.
type flightTable struct {
	edges []*telemetry.Flight
}

func (t *flightTable) ring(id model.SwitchID) *telemetry.Flight {
	if int64(id) < int64(len(t.edges)) {
		if f := t.edges[id]; f != nil {
			return f
		}
	}
	return t.materialize(id)
}

func (t *flightTable) materialize(id model.SwitchID) *telemetry.Flight {
	for int64(id) >= int64(len(t.edges)) {
		t.edges = append(t.edges, make([]*telemetry.Flight, len(t.edges)+64)...)
	}
	f := t.edges[id]
	if f == nil {
		f = telemetry.NewFlight(telemetry.DefaultFlightDepth)
		t.edges[id] = f
	}
	return f
}

// tail renders switch id's ring, oldest first (nil when it recorded
// nothing).
func (t *flightTable) tail(id model.SwitchID) []string {
	if int64(id) < int64(len(t.edges)) {
		return t.edges[id].Tail() // a nil ring's Tail is nil
	}
	return nil
}

// installFlightRecorders hangs per-edge-switch flight rings of
// telemetry.DefaultFlightDepth events off the underlay's Observer hook:
// each wire event lands in the sending switch's ring at send time and
// the receiving switch's at delivery time. The controller replicas
// deliberately get no rings: every post-mortem consumer reads
// per-switch tails (chaos.World violations name switches), a
// controller ring would wrap several times per keep-alive round at any
// sane depth (the controller touches every switch every round), and
// skipping it halves the observer's hot-path work — the controller's
// half of each exchange is still visible in the peer switch's ring.
// Rings materialize lazily per switch.
func installFlightRecorders(net *netsim.Network, now func() time.Duration) *flightTable {
	t := &flightTable{edges: make([]*telemetry.Flight, 256)}
	net.Observer = func(from, to model.SwitchID, msg netsim.Message, delivered bool) {
		owner := from
		if delivered {
			owner = to
		}
		if model.IsControllerAddr(owner) {
			return
		}
		ev, ok := flightEvent(now(), msg)
		if !ok {
			return
		}
		if delivered {
			ev.Sent, ev.Peer = false, int64(from)
		} else {
			ev.Sent, ev.Peer = true, int64(to)
		}
		t.ring(owner).Record(ev)
	}
	return t
}

// absorbTakeover folds one controller.TakeoverTimeline into the trace
// as a "failover" span tree: the root spans detection through the last
// closed phase, with one child per phase (announce, residue rebuild,
// config re-push). Takeovers are rare and load-bearing, so the root
// bypasses head sampling (Tracer.EmitRoot).
func absorbTakeover(tr *telemetry.Tracer, tl controller.TakeoverTimeline) {
	end := tl.AnnouncedAt
	if tl.RebuiltAt > end {
		end = tl.RebuiltAt
	}
	if tl.RepushedAt > end {
		end = tl.RepushedAt
	}
	root := tr.EmitRoot("failover", tl.DetectedAt, end,
		telemetry.Attr{Key: "gen", Val: int64(tl.Generation)})
	tr.Emit(root, "failover.announce", tl.DetectedAt, tl.AnnouncedAt)
	if tl.RebuiltAt > 0 {
		tr.Emit(root, "failover.rebuild", tl.AnnouncedAt, tl.RebuiltAt)
	}
	if tl.RepushedAt > 0 {
		tr.Emit(root, "failover.repush", tl.AnnouncedAt, tl.RepushedAt)
	}
}
