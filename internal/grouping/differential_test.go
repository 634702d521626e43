package grouping

// Differential and property tests for the indexed Intensity and the
// delta-tracked W_inter: the indexed hot path must be observationally
// identical to the legacy map-based implementation (byte-identical
// groupings under the same seeds) and the incremental cut weights must
// stay within 1e-9 of a naive full rescan under arbitrary
// merge/split/move sequences.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"lazyctrl/internal/model"
)

// matrixOp is one mutation applied identically to both implementations.
type matrixOp struct {
	a, b  model.SwitchID
	rate  float64
	decay float64 // > 0: decay instead of add
}

func randomOps(n int, maxSwitch int, seed uint64) []matrixOp {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	ops := make([]matrixOp, 0, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.03 {
			ops = append(ops, matrixOp{decay: 0.3 + rng.Float64()*0.6})
			continue
		}
		op := matrixOp{
			a:    model.SwitchID(1 + rng.IntN(maxSwitch)),
			b:    model.SwitchID(1 + rng.IntN(maxSwitch)),
			rate: rng.Float64() * 100,
		}
		if rng.Float64() < 0.02 {
			op.rate = 2.5e-12 // decays below the floor quickly
		}
		ops = append(ops, op)
	}
	return ops
}

func applyOps(ops []matrixOp, idx *Intensity, leg *legacyIntensity) {
	for _, op := range ops {
		if op.decay > 0 {
			idx.Decay(op.decay)
			leg.Decay(op.decay)
			continue
		}
		idx.Add(op.a, op.b, op.rate)
		leg.Add(op.a, op.b, op.rate)
	}
}

func pairDump(m intensityMatrix) string {
	var sb strings.Builder
	m.ForEachPair(func(p model.SwitchPair, w float64) {
		fmt.Fprintf(&sb, "%d-%d:%x\n", p.A, p.B, math.Float64bits(w))
	})
	return sb.String()
}

func TestIndexedMatchesLegacyObservables(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		idx := NewIntensity()
		leg := newLegacyIntensity()
		applyOps(randomOps(4000, 60, seed), idx, leg)

		if got, want := idx.NumPairs(), leg.NumPairs(); got != want {
			t.Fatalf("seed %d: NumPairs = %d, want %d", seed, got, want)
		}
		if got, want := idx.Switches(), leg.Switches(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: Switches = %v, want %v", seed, got, want)
		}
		// Pair weights accumulate with the same operation order in both
		// implementations, so they must agree bit-for-bit.
		if got, want := pairDump(idx), pairDump(leg); got != want {
			t.Fatalf("seed %d: ForEachPair dumps differ:\n%s\nvs\n%s", seed, got, want)
		}
		if got, want := idx.MaxPair(), leg.MaxPair(); got != want {
			t.Fatalf("seed %d: MaxPair = %v, want %v", seed, got, want)
		}
		// Totals are accumulated in different orders (the legacy Decay
		// walks a map), so compare within a relative tolerance.
		if got, want := idx.Total(), leg.Total(); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("seed %d: Total = %v, want %v", seed, got, want)
		}
		assign := func(s model.SwitchID) model.GroupID { return model.GroupID(s % 5) }
		gi, gl := idx.InterGroup(assign), leg.InterGroup(assign)
		if math.Abs(gi-gl) > 1e-9*(1+math.Abs(gl)) {
			t.Fatalf("seed %d: InterGroup = %v, want %v", seed, gi, gl)
		}
	}
}

// canonicalGrouping renders a grouping as its sorted list of sorted
// member sets, independent of group ID allocation order.
func canonicalGrouping(g *Grouping) string {
	var groups [][]model.SwitchID
	for _, id := range g.GroupIDs() {
		groups = append(groups, g.Members(id))
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	var sb strings.Builder
	for _, members := range groups {
		fmt.Fprintf(&sb, "%v\n", members)
	}
	return sb.String()
}

// TestSGIDifferentialByteIdenticalGroupings drives the full SGI pipeline
// (IniGroup, traffic drift, repeated IncUpdate) through the indexed and
// the legacy map-based matrix under the same seeds and asserts the
// resulting groupings are byte-identical at every step.
func TestSGIDifferentialByteIdenticalGroupings(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
		idx := NewIntensity()
		leg := newLegacyIntensity()
		// Community traffic: 6 communities of 12 switches.
		id := func(c, i int) model.SwitchID { return model.SwitchID(1 + c*12 + i) }
		for c := 0; c < 6; c++ {
			for i := 0; i < 12; i++ {
				for j := i + 1; j < 12; j++ {
					if rng.Float64() < 0.6 {
						w := 40 + rng.Float64()*80
						idx.Add(id(c, i), id(c, j), w)
						leg.Add(id(c, i), id(c, j), w)
					}
				}
			}
		}
		cfg := Config{SizeLimit: 14, Seed: seed, HighLoad: 0.02, LowLoad: 0.01}
		sgiIdx, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sgiLeg, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		grpIdx, err := sgiIdx.iniGroup(idx)
		if err != nil {
			t.Fatalf("indexed IniGroup: %v", err)
		}
		grpLeg, err := sgiLeg.iniGroup(leg)
		if err != nil {
			t.Fatalf("legacy IniGroup: %v", err)
		}
		if a, b := canonicalGrouping(grpIdx), canonicalGrouping(grpLeg); a != b {
			t.Fatalf("seed %d: IniGroup diverged:\n%s\nvs\n%s", seed, a, b)
		}

		// Three drift + IncUpdate rounds.
		for round := 0; round < 3; round++ {
			for e := 0; e < 120; e++ {
				a := model.SwitchID(1 + rng.IntN(72))
				b := model.SwitchID(1 + rng.IntN(72))
				w := 30 + rng.Float64()*60
				idx.Add(a, b, w)
				leg.Add(a, b, w)
			}
			opsIdx, err := sgiIdx.incUpdate(grpIdx, idx, nil)
			if err != nil {
				t.Fatalf("indexed IncUpdate: %v", err)
			}
			opsLeg, err := sgiLeg.incUpdate(grpLeg, leg, nil)
			if err != nil {
				t.Fatalf("legacy IncUpdate: %v", err)
			}
			if opsIdx != opsLeg {
				t.Fatalf("seed %d round %d: ops %d vs %d", seed, round, opsIdx, opsLeg)
			}
			if a, b := canonicalGrouping(grpIdx), canonicalGrouping(grpLeg); a != b {
				t.Fatalf("seed %d round %d: groupings diverged:\n%s\nvs\n%s", seed, round, a, b)
			}
			if err := grpIdx.Validate(cfg.SizeLimit); err != nil {
				t.Fatalf("invalid grouping: %v", err)
			}
		}
	}
}

// naiveGroupCut recomputes the tracker's quantities by full rescan.
func naiveGroupCut(m intensityMatrix, assign func(model.SwitchID) model.GroupID) (inter float64, pairW map[gpKey]float64) {
	pairW = make(map[gpKey]float64)
	m.ForEachPair(func(p model.SwitchPair, w float64) {
		ga, gb := assign(p.A), assign(p.B)
		if refCrossing(ga, gb) {
			inter += w
			if ga != model.NoGroup && gb != model.NoGroup {
				pairW[makeGPKey(ga, gb)] += w
			}
		}
	})
	return inter, pairW
}

// TestCutTrackerMatchesNaiveRescan applies random merge/split/move
// sequences to a cut tracker and checks after every mutation that the
// delta-tracked W_inter and per-group-pair weights stay within 1e-9 of
// the naive full rescan.
func TestCutTrackerMatchesNaiveRescan(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed^0x7ac3))
		m := NewIntensity()
		const nSwitch = 48
		for e := 0; e < 500; e++ {
			a := model.SwitchID(1 + rng.IntN(nSwitch))
			b := model.SwitchID(1 + rng.IntN(nSwitch))
			m.Add(a, b, rng.Float64()*50)
		}
		// Snapshot matrix: the same traffic minus some recent growth.
		prev := m.Clone()
		for e := 0; e < 200; e++ {
			a := model.SwitchID(1 + rng.IntN(nSwitch))
			b := model.SwitchID(1 + rng.IntN(nSwitch))
			m.Add(a, b, rng.Float64()*80)
		}

		// Random initial grouping: 6 groups, some switches unassigned.
		grp := NewGrouping()
		var buckets [6][]model.SwitchID
		for s := 1; s <= nSwitch; s++ {
			if rng.Float64() < 0.1 {
				continue // controller-handled
			}
			k := rng.IntN(6)
			buckets[k] = append(buckets[k], model.SwitchID(s))
		}
		var gids []model.GroupID
		for _, members := range buckets {
			if len(members) > 0 {
				gids = append(gids, grp.AddGroup(members))
			}
		}

		tr := newCutTracker(grp, m, prev)
		check := func(step string) {
			t.Helper()
			wantInter, wantPair := naiveGroupCut(m, tr.groupOf)
			if math.Abs(tr.inter-wantInter) > 1e-9*(1+math.Abs(wantInter)) {
				t.Fatalf("seed %d %s: inter = %v, want %v", seed, step, tr.inter, wantInter)
			}
			cur, prevW := tr.trackedPairs()
			for k, w := range wantPair {
				if math.Abs(cur[k]-w) > 1e-9*(1+math.Abs(w)) {
					t.Fatalf("seed %d %s: cur[%v] = %v, want %v", seed, step, k, cur[k], w)
				}
			}
			for k, w := range cur {
				if _, ok := wantPair[k]; !ok && math.Abs(w) > 1e-9 {
					t.Fatalf("seed %d %s: stale pair %v = %v", seed, step, k, w)
				}
			}
			_, wantPrev := naiveGroupCut(prev, tr.groupOf)
			for k, w := range wantPrev {
				if math.Abs(prevW[k]-w) > 1e-9*(1+math.Abs(w)) {
					t.Fatalf("seed %d %s: prevW[%v] = %v, want %v", seed, step, k, prevW[k], w)
				}
			}
		}
		check("initial")

		nextGID := model.GroupID(1000) // synthetic IDs for regroup tests
		for op := 0; op < 120; op++ {
			switch rng.IntN(3) {
			case 0: // move one switch to a random live group or NoGroup
				s := model.SwitchID(1 + rng.IntN(nSwitch))
				var g model.GroupID
				if rng.Float64() < 0.8 && len(gids) > 0 {
					g = gids[rng.IntN(len(gids))]
				}
				tr.move(s, g)
				check(fmt.Sprintf("op %d move %d->%d", op, s, g))
			case 1: // merge/split two groups into two fresh ones
				if len(gids) < 2 {
					continue
				}
				i, j := rng.IntN(len(gids)), rng.IntN(len(gids))
				if i == j {
					continue
				}
				a, b := gids[i], gids[j]
				var union []model.SwitchID
				for _, s := range tr.ids {
					if g := tr.groupOf(s); g == a || g == b {
						union = append(union, s)
					}
				}
				if len(union) < 2 {
					continue
				}
				sort.Slice(union, func(x, y int) bool { return union[x] < union[y] })
				cut := 1 + rng.IntN(len(union)-1)
				g0, g1 := nextGID, nextGID+1
				nextGID += 2
				tr.regroup(a, b, union[:cut], g0, union[cut:], g1)
				gids = append(gids[:0:0], gids...)
				out := gids[:0]
				for _, g := range gids {
					if g != a && g != b {
						out = append(out, g)
					}
				}
				gids = append(out, g0, g1)
				check(fmt.Sprintf("op %d regroup %d+%d", op, a, b))
			case 2: // pairChanges must only report live, positive pairs
				for _, c := range tr.pairChanges() {
					if c.current <= 0 {
						t.Fatalf("seed %d op %d: non-positive current %v", seed, op, c)
					}
					live := false
					for _, g := range gids {
						if g == c.a || g == c.b {
							live = true
						}
					}
					if !live {
						t.Fatalf("seed %d op %d: pairChanges reports dead groups %v-%v", seed, op, c.a, c.b)
					}
				}
			}
		}
	}
}

// TestDecayDropsPairsFromCaches is the regression test for the Decay
// cache bug: after a decay evicts pairs, the cached iteration order must
// not resurrect them, and a decay-then-regroup sequence must be
// deterministic.
func TestDecayDropsPairsFromCaches(t *testing.T) {
	build := func() *Intensity {
		m := NewIntensity()
		m.Add(1, 2, 10)
		m.Add(2, 3, 4)
		m.Add(3, 4, 2e-12) // will fall below the 1e-12 floor
		m.Add(4, 5, 8)
		return m
	}
	m := build()
	m.ForEachPair(func(model.SwitchPair, float64) {}) // prime the cache
	m.Decay(0.4)

	var seen []model.SwitchPair
	m.ForEachPair(func(p model.SwitchPair, w float64) {
		seen = append(seen, p)
		if w < decayFloor {
			t.Errorf("pair %v below decay floor: %v", p, w)
		}
	})
	if len(seen) != m.NumPairs() || len(seen) != 3 {
		t.Fatalf("iterated %d pairs (%v), NumPairs = %d, want 3", len(seen), seen, m.NumPairs())
	}
	if m.Pair(3, 4) != 0 {
		t.Errorf("evicted pair still readable: %v", m.Pair(3, 4))
	}
	if m.MaxPair() != 4 {
		t.Errorf("MaxPair after decay = %v, want 4", m.MaxPair())
	}

	// Decay-then-regroup determinism: the same sequence from scratch must
	// group identically.
	mk := func() string {
		m := build()
		m.ForEachPair(func(model.SwitchPair, float64) {})
		m.Decay(0.4)
		s, err := New(Config{SizeLimit: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		grp, err := s.IniGroup(m)
		if err != nil {
			t.Fatal(err)
		}
		return canonicalGrouping(grp)
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("decay-then-regroup not deterministic:\n%s\nvs\n%s", a, b)
	}
}
