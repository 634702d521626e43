package replay

import (
	"testing"
	"time"

	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/tenant"
	"lazyctrl/internal/trace"
)

// fluidTestDir builds four switches with one host each, all in one
// tenant: host i lives on switch i.
func fluidTestDir(t *testing.T) *tenant.Directory {
	t.Helper()
	dir := tenant.NewDirectory([]model.SwitchID{1, 2, 3, 4})
	if err := dir.AddTenant(1, 100); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := dir.AddHost(model.HostID(i), 1, model.SwitchID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestFluidRegroupSplit pins the mid-window regroup fix: with the
// regroup timeline noted, each flow is classified under the assignment
// in force at its start time, so the fold is EXACT (0% error) across a
// regroup landing mid-window — well inside the 0.5% budget. The legacy
// path (no timeline: one fold-time view for the whole window)
// misattributes every pre-regroup flow, which is the 2–3% error this
// PR removes.
func TestFluidRegroupSplit(t *testing.T) {
	dir := fluidTestDir(t)
	// Assignment A groups {1,2}; B regroups to {1,3}. Flows are all
	// host1→host2: intra-group (no escalation) under A, inter-group
	// (one PacketIn each) under B.
	viewA := grouping.NewGrouping()
	viewA.AddGroup([]model.SwitchID{1, 2})
	viewA.AddGroup([]model.SwitchID{3, 4})
	viewB := grouping.NewGrouping()
	viewB.AddGroup([]model.SwitchID{1, 3})
	viewB.AddGroup([]model.SwitchID{2, 4})

	const (
		horizon = 100 * time.Second
		bucket  = 10 * time.Second
		regroup = 50 * time.Second
	)
	cfg := FluidConfig{
		Directory:   dir,
		Lazy:        true,
		Horizon:     horizon,
		BucketWidth: bucket,
		// 1ns idle timeout: installed rules never absorb the next flow,
		// so escalation counts depend only on the classification.
		RuleIdleTimeout: 1,
	}
	var flows []trace.Flow
	for sec := 0; sec < 100; sec++ {
		flows = append(flows, trace.Flow{
			Start: time.Duration(sec) * time.Second,
			Src:   1, Dst: 2, Packets: 1,
		})
	}

	// Epoch-timeline fold: one window spanning the regroup, folded (as
	// the harness does) at window end under the newest view.
	f := NewFluid(cfg)
	f.NoteRegroup(0, viewA, 1)
	f.NoteRegroup(regroup, viewB, 2)
	f.FoldWindow(flows, viewB, 2)
	got := f.PacketIns()
	for b, want := range []float64{0, 0, 0, 0, 0, 10, 10, 10, 10, 10} {
		if got[b] != want {
			t.Errorf("bucket %d: got %.0f PacketIns, want %.0f (exact)", b, got[b], want)
		}
	}

	// The legacy path (no timeline) smears the fold-time view across
	// the window; keep it pinned as wrong so the regression is visible.
	legacy := NewFluid(cfg)
	legacy.FoldWindow(flows, viewB, 2)
	var legacyTotal float64
	for _, v := range legacy.PacketIns() {
		legacyTotal += v
	}
	if legacyTotal != 100 {
		t.Errorf("legacy fold: got %.0f PacketIns, want 100 (every flow misattributed to view B)", legacyTotal)
	}
}

// TestFluidPerFlowBaseline pins the per-flow (5-tuple) rule model: no
// installed rule ever absorbs a later flow, so every distinct flow on
// the same host pair escalates, in both control modes.
func TestFluidPerFlowBaseline(t *testing.T) {
	dir := fluidTestDir(t)
	cfg := FluidConfig{
		Directory:       dir,
		Lazy:            false,
		Horizon:         100 * time.Second,
		BucketWidth:     10 * time.Second,
		RuleIdleTimeout: time.Hour, // aggregate rule would absorb everything
	}
	flows := []trace.Flow{
		{Start: 1 * time.Second, Src: 1, Dst: 2, Packets: 1},
		{Start: 2 * time.Second, Src: 2, Dst: 1, Packets: 1},
		{Start: 3 * time.Second, Src: 1, Dst: 2, Packets: 1},
		{Start: 4 * time.Second, Src: 1, Dst: 2, Packets: 1},
	}

	agg := NewFluid(cfg)
	agg.FoldWindow(flows, nil, 0)
	perFlow := NewFluid(FluidConfig{
		Directory:       cfg.Directory,
		Lazy:            cfg.Lazy,
		Horizon:         cfg.Horizon,
		BucketWidth:     cfg.BucketWidth,
		RuleIdleTimeout: cfg.RuleIdleTimeout,
		PerFlowBaseline: true,
	})
	perFlow.FoldWindow(flows, nil, 0)

	sum := func(f *Fluid) (n float64) {
		for _, v := range f.PacketIns() {
			n += v
		}
		return n
	}
	// Aggregate MAC-granularity rules: flow 1 escalates and floods
	// (dst 2 unknown), flow 2 escalates and installs (dst 1 learned
	// from flow 1), flow 3 escalates and installs (dst 2 learned from
	// flow 2), flow 4 hits the rule. Per-flow rules: all four escalate.
	if got := sum(agg); got != 3 {
		t.Errorf("aggregate baseline: got %.0f PacketIns, want 3", got)
	}
	if got := sum(perFlow); got != 4 {
		t.Errorf("per-flow baseline: got %.0f PacketIns, want 4", got)
	}
}
