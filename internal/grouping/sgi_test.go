package grouping

import (
	"math/rand/v2"
	"strings"
	"testing"

	"lazyctrl/internal/model"
)

// communityIntensity builds an intensity matrix with nGroups communities
// of size groupSize: heavy intra-community traffic, light cross traffic.
func communityIntensity(nGroups, groupSize int, seed uint64) (*Intensity, map[model.SwitchID]int) {
	rng := rand.New(rand.NewPCG(seed, seed^77))
	m := NewIntensity()
	truth := make(map[model.SwitchID]int)
	id := func(c, i int) model.SwitchID { return model.SwitchID(1 + c*groupSize + i) }
	for c := 0; c < nGroups; c++ {
		for i := 0; i < groupSize; i++ {
			truth[id(c, i)] = c
			for j := i + 1; j < groupSize; j++ {
				if rng.Float64() < 0.7 {
					m.Add(id(c, i), id(c, j), 50+rng.Float64()*100)
				}
			}
		}
	}
	// Light cross traffic.
	n := nGroups * groupSize
	for e := 0; e < n; e++ {
		a := model.SwitchID(1 + rng.IntN(n))
		b := model.SwitchID(1 + rng.IntN(n))
		if truth[a] != truth[b] {
			m.Add(a, b, rng.Float64()*2)
		}
	}
	return m, truth
}

func TestIniGroupRecoversCommunities(t *testing.T) {
	m, truth := communityIntensity(5, 20, 3)
	s, err := New(Config{SizeLimit: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grp, err := s.IniGroup(m)
	if err != nil {
		t.Fatalf("IniGroup: %v", err)
	}
	if err := grp.Validate(24); err != nil {
		t.Fatalf("invalid grouping: %v", err)
	}
	if grp.NumSwitches() != 100 {
		t.Errorf("NumSwitches = %d, want 100", grp.NumSwitches())
	}
	if w := Winter(grp, m); w > 0.05 {
		t.Errorf("Winter = %.3f, want ≤ 0.05 (clear communities)", w)
	}
	_ = truth
}

func TestIniGroupSizeLimitRespected(t *testing.T) {
	m, _ := communityIntensity(3, 30, 5)
	s, err := New(Config{SizeLimit: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	grp, err := s.IniGroup(m)
	if err != nil {
		t.Fatalf("IniGroup: %v", err)
	}
	if err := grp.Validate(10); err != nil {
		t.Fatalf("size limit violated: %v", err)
	}
	if grp.NumGroups() < 9 {
		t.Errorf("NumGroups = %d, want ≥ 9 (90 switches / limit 10)", grp.NumGroups())
	}
}

func TestIniGroupEmptyMatrix(t *testing.T) {
	s, err := New(Config{SizeLimit: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grp, err := s.IniGroup(NewIntensity())
	if err != nil {
		t.Fatalf("IniGroup: %v", err)
	}
	if grp.NumGroups() != 0 {
		t.Errorf("NumGroups = %d, want 0", grp.NumGroups())
	}
}

func TestIniGroupSingleSwitch(t *testing.T) {
	m := NewIntensity()
	m.AddSwitch(7)
	s, err := New(Config{SizeLimit: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grp, err := s.IniGroup(m)
	if err != nil {
		t.Fatalf("IniGroup: %v", err)
	}
	if grp.NumGroups() != 1 || grp.GroupOf(7) == model.NoGroup {
		t.Errorf("single switch not grouped: %v", grp)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{SizeLimit: 0}); err == nil {
		t.Error("SizeLimit 0 accepted")
	}
	if _, err := New(Config{SizeLimit: 5, HighLoad: 0.05, LowLoad: 0.2}); err == nil {
		t.Error("LowLoad > HighLoad accepted")
	}
}

// driftTraffic returns a matrix like base but with extra cross traffic
// between two of the original communities, degrading the old grouping.
func driftTraffic(base *Intensity, from, to []model.SwitchID, rate float64, seed uint64) *Intensity {
	rng := rand.New(rand.NewPCG(seed, seed+4))
	cur := base.Clone()
	for i := 0; i < 40; i++ {
		a := from[rng.IntN(len(from))]
		b := to[rng.IntN(len(to))]
		cur.Add(a, b, rate)
	}
	return cur
}

func TestIncUpdateReducesWinter(t *testing.T) {
	m, _ := communityIntensity(4, 10, 13)
	s, err := New(Config{SizeLimit: 14, Seed: 3, HighLoad: 0.05, LowLoad: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	grp, err := s.IniGroup(m)
	if err != nil {
		t.Fatalf("IniGroup: %v", err)
	}

	// Drift: communities 0 and 1 start talking heavily; the optimal
	// grouping changes.
	var g0, g1 []model.SwitchID
	for i := 1; i <= 10; i++ {
		g0 = append(g0, model.SwitchID(i))
		g1 = append(g1, model.SwitchID(10+i))
	}
	cur := driftTraffic(m, g0[:5], g1[:5], 80, 21)

	before := Winter(grp, cur)
	ops, err := s.IncUpdate(grp, cur, nil)
	if err != nil {
		t.Fatalf("IncUpdate: %v", err)
	}
	after := Winter(grp, cur)
	if ops == 0 {
		t.Fatalf("IncUpdate applied no operations (before=%.3f)", before)
	}
	if after >= before {
		t.Errorf("Winter did not improve: before=%.3f after=%.3f", before, after)
	}
	if err := grp.Validate(14); err != nil {
		t.Fatalf("grouping invalid after IncUpdate: %v", err)
	}
}

func TestIncUpdateNoopWhenUnderloaded(t *testing.T) {
	m, _ := communityIntensity(4, 10, 17)
	s, err := New(Config{SizeLimit: 14, Seed: 3, HighLoad: 0.9, LowLoad: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	grp, err := s.IniGroup(m)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := s.IncUpdate(grp, m, nil)
	if err != nil {
		t.Fatalf("IncUpdate: %v", err)
	}
	if ops != 0 {
		t.Errorf("ops = %d, want 0 when load below HighLoad", ops)
	}
}

func TestIncUpdateCustomLoadFunc(t *testing.T) {
	m, _ := communityIntensity(4, 10, 37)
	s, err := New(Config{SizeLimit: 14, Seed: 7, HighLoad: 0.10, LowLoad: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	grp, err := s.IniGroup(m)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	load := func(g *Grouping, cur *Intensity) float64 {
		calls++
		return 0 // always underloaded
	}
	ops, err := s.IncUpdate(grp, m, load)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 0 || calls == 0 {
		t.Errorf("ops = %d calls = %d, want 0 ops and ≥1 call", ops, calls)
	}
}

// TestIncUpdateRefusesForeignMatrix: IncUpdate measures growth against
// the matrix grouped last entry by entry, so it refuses a matrix whose
// index space does not extend that one's and accepts a grown clone.
func TestIncUpdateRefusesForeignMatrix(t *testing.T) {
	m := NewIntensity()
	m.Add(1, 2, 10)
	m.Add(3, 4, 10)
	s, err := New(Config{SizeLimit: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grp, err := s.IniGroup(m)
	if err != nil {
		t.Fatal(err)
	}
	foreign := NewIntensity()
	foreign.Add(3, 4, 10)
	foreign.Add(1, 2, 10)
	if _, err := s.IncUpdate(grp, foreign, nil); err == nil {
		t.Error("IncUpdate accepted a matrix that registered the switches in another order")
	}
	grown := m.Clone()
	grown.Add(2, 5, 1)
	if _, err := s.IncUpdate(grp, grown, nil); err != nil {
		t.Errorf("IncUpdate refused a grown clone: %v", err)
	}
}

func TestGroupingBasics(t *testing.T) {
	g := NewGrouping()
	id1 := g.AddGroup([]model.SwitchID{3, 1, 2})
	id2 := g.AddGroup([]model.SwitchID{4})
	if g.NumGroups() != 2 || g.NumSwitches() != 4 {
		t.Fatalf("groups=%d switches=%d, want 2,4", g.NumGroups(), g.NumSwitches())
	}
	members := g.Members(id1)
	if len(members) != 3 || members[0] != 1 || members[2] != 3 {
		t.Errorf("Members = %v, want sorted [1 2 3]", members)
	}
	if g.GroupOf(4) != id2 {
		t.Errorf("GroupOf(4) = %v, want %v", g.GroupOf(4), id2)
	}
	if g.GroupOf(99) != model.NoGroup {
		t.Error("unknown switch has a group")
	}

	// Moving a switch to a new group removes it from the old one.
	v := g.version
	id3 := g.AddGroup([]model.SwitchID{1})
	if g.GroupOf(1) != id3 {
		t.Error("switch not moved to new group")
	}
	if len(g.Members(id1)) != 2 {
		t.Errorf("old group still has %d members, want 2", len(g.Members(id1)))
	}
	if g.version == v {
		t.Error("version did not advance")
	}
	if err := g.Validate(5); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	g.RemoveGroup(id1)
	if g.NumSwitches() != 2 {
		t.Errorf("NumSwitches = %d after removal, want 2", g.NumSwitches())
	}
}

// TestGroupingValidateCatchesViolations breaks a valid grouping of
// {1, 2, 3} and {4} in each way Validate must catch, one case per
// failure shape, and checks the error names it.
func TestGroupingValidateCatchesViolations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int
		brk   func(g *Grouping)
		want  string
	}{
		{"valid", 3, func(*Grouping) {}, ""},
		{"oversize group", 2, func(*Grouping) {}, "has 3 members, limit 2"},
		{"empty group", 3, func(g *Grouping) { g.groups[7] = nil }, "empty group G7"},
		{"switch in two groups", 3, func(g *Grouping) { g.groups[2] = []model.SwitchID{3, 4} }, "index says S3 is in G1, membership says G2"},
		{"duplicate in one group", 3, func(g *Grouping) { g.groups[2] = []model.SwitchID{4, 4} }, "group G2 lists S4 after S4"},
		// The duplicate and the orphan keep the member count equal to
		// the index's size: only the order check finds this one.
		{"duplicate and orphan", 3, func(g *Grouping) { g.groups[1] = []model.SwitchID{1, 2, 2} }, "group G1 lists S2 after S2"},
		{"index entry with no member", 3, func(g *Grouping) { g.assign[9] = 2 }, "index has 5 entries, groups have 4 members"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGrouping()
			g.AddGroup([]model.SwitchID{3, 1, 2})
			g.AddGroup([]model.SwitchID{4})
			tc.brk(g)
			err := g.Validate(tc.limit)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Validate: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Validate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestGroupingClone(t *testing.T) {
	g := NewGrouping()
	id := g.AddGroup([]model.SwitchID{1, 2})
	c := g.Clone()
	c.AddGroup([]model.SwitchID{1}) // moves 1 in the clone
	if g.GroupOf(1) != id {
		t.Error("clone mutation leaked into original")
	}
}

func TestIniGroupDeterministic(t *testing.T) {
	m, _ := communityIntensity(4, 15, 41)
	mk := func() *Grouping {
		s, err := New(Config{SizeLimit: 18, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		grp, err := s.IniGroup(m)
		if err != nil {
			t.Fatal(err)
		}
		return grp
	}
	a, b := mk(), mk()
	for _, sw := range m.Switches() {
		// Group IDs are allocation-order dependent but must induce the
		// same partition: compare co-membership.
		for _, sw2 := range m.Switches() {
			if (a.GroupOf(sw) == a.GroupOf(sw2)) != (b.GroupOf(sw) == b.GroupOf(sw2)) {
				t.Fatalf("co-membership of %v,%v differs across runs", sw, sw2)
			}
		}
	}
}
