package replay

import (
	"math"
	"testing"
	"time"

	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/trace"
)

// TestFoldAggWindowRuleCache pins the aggregate fold's exact-destination
// rule cache on hand-computed one-pair windows. Every window is 100 s,
// every cell carries 8 flows (4 per direction, λ = 0.04/s) and the idle
// timeout is 50 s, so λT = 2 and e = exp(−2). A direction's expected
// misses are 1 + 3e with no live rule and 3e with one; its rule is set
// at the window's last expected arrival, 80 s into the window, and a
// later window's first arrival lands 20 s in.
func TestFoldAggWindowRuleCache(t *testing.T) {
	const (
		W = 100 * time.Second
		T = 50 * time.Second
	)
	e := math.Exp(-2)
	dir := fluidTestDir(t)
	cfg := FluidConfig{
		Directory:       dir,
		Lazy:            true,
		Horizon:         time.Hour,
		BucketWidth:     time.Hour,
		RuleIdleTimeout: T,
	}
	pair := func(src, dst model.HostID) trace.PairAgg { return trace.PairAgg{Src: src, Dst: dst, Flows: 8} }
	key := func(sw model.SwitchID, h model.HostID) uint64 { return uint64(sw)<<32 | uint64(h) }
	var total float64
	fold := func(f *Fluid, w int, cells []trace.PairAgg, view *grouping.Grouping) float64 {
		t.Helper()
		f.FoldAggWindow(cells, time.Duration(w)*W, time.Duration(w+1)*W, view, 1)
		var sum float64
		for _, v := range f.PacketIns() {
			sum += v
		}
		delta := sum - total
		total = sum
		return delta
	}
	check := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("%s: %.12f PacketIns, want %.12f", what, got, want)
		}
	}

	f := NewFluid(cfg)
	// Window 0: no rule yet, two pairs, four directions.
	check("first window", fold(f, 0, []trace.PairAgg{pair(1, 2), pair(3, 4)}, nil), 4*(1+3*e))
	if _, ok := f.agg.cache.get(key(3, 4)); !ok {
		t.Fatal("window 0 installed no rule for S3 → host 4")
	}
	// Window 1: the rules set at 80 s are 40 s old at 120 s: live, in
	// both directions, whichever the fold looks up first.
	check("rule live from the previous window", fold(f, 1, []trace.PairAgg{pair(1, 2)}, nil), 2*3*e)
	// One rotation (at 100 s) keeps the S3 → host 4 rule set at 80 s.
	if _, ok := f.agg.cache.get(key(3, 4)); !ok {
		t.Error("an entry one rotation old was dropped")
	}
	// Window 3 (window 2 silent): the rules set at 180 s are 140 s old
	// at 320 s: stale, so the first arrival misses again.
	check("stale rule", fold(f, 3, []trace.PairAgg{pair(1, 2)}, nil), 2*(1+3*e))
	// The second rotation (at 300 s) drops the S3 → host 4 rule.
	if _, ok := f.agg.cache.get(key(3, 4)); ok {
		t.Error("an entry two rotations old survived")
	}
	// Window 4 under a grouping of {1,2}: intra-group, escalates
	// nothing, and refreshes the live rule (set at 380 s, 40 s old at
	// 420 s) because it survives the window with probability
	// (1−e)³ ≈ 0.65 ≥ 0.5.
	grp := grouping.NewGrouping()
	grp.AddGroup([]model.SwitchID{1, 2})
	grp.AddGroup([]model.SwitchID{3, 4})
	check("intra-group segment", fold(f, 4, []trace.PairAgg{pair(1, 2)}, grp), 0)
	if last, _ := f.agg.cache.get(key(1, 2)); last != 480*time.Second {
		t.Errorf("intra-group segment left the rule at %v, want refreshed to 480s", last)
	}
	// Window 5: live only through that refresh (380 s would be stale).
	check("rule refreshed by the intra-group segment", fold(f, 5, []trace.PairAgg{pair(1, 2)}, nil), 2*3*e)

	// Learning mode installs a rule only for a destination the
	// controller has learned, at the end of the window that escalated it.
	cfg.Lazy = false
	learn := NewFluid(cfg)
	total = 0
	check("learning, unknown destinations", fold(learn, 0, []trace.PairAgg{pair(1, 2)}, nil), 2*(1+3*e))
	check("learning, destinations learned but no rule yet", fold(learn, 1, []trace.PairAgg{pair(1, 2)}, nil), 2*(1+3*e))
	check("learning, rule installed", fold(learn, 2, []trace.PairAgg{pair(1, 2)}, nil), 2*3*e)
}
