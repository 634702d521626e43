package grouping

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"lazyctrl/internal/model"
)

func TestIntensityAddAndPair(t *testing.T) {
	m := NewIntensity()
	m.Add(1, 2, 3.5)
	m.Add(2, 1, 1.5) // symmetric accumulation
	if got := m.Pair(1, 2); got != 5 {
		t.Errorf("Pair(1,2) = %v, want 5", got)
	}
	if got := m.Pair(2, 1); got != 5 {
		t.Errorf("Pair(2,1) = %v, want 5", got)
	}
	if m.Total() != 5 {
		t.Errorf("Total() = %v, want 5", m.Total())
	}
	if m.NumSwitches() != 2 || m.NumPairs() != 1 {
		t.Errorf("NumSwitches=%d NumPairs=%d, want 2,1", m.NumSwitches(), m.NumPairs())
	}
}

func TestIntensityIgnoresSelfAndNonPositive(t *testing.T) {
	m := NewIntensity()
	m.Add(1, 1, 10)
	m.Add(1, 2, 0)
	m.Add(1, 2, -5)
	if m.Total() != 0 {
		t.Errorf("Total() = %v, want 0", m.Total())
	}
	if m.NumSwitches() != 2 {
		t.Errorf("NumSwitches() = %d, want 2 (registered despite no weight)", m.NumSwitches())
	}
}

func TestIntensitySwitchesSorted(t *testing.T) {
	m := NewIntensity()
	m.AddSwitch(30)
	m.AddSwitch(10)
	m.AddSwitch(20)
	got := m.Switches()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("Switches() = %v, want [10 20 30]", got)
	}
}

func TestInterGroup(t *testing.T) {
	m := NewIntensity()
	m.Add(1, 2, 10) // same group
	m.Add(3, 4, 20) // same group
	m.Add(1, 3, 5)  // cross
	assign := func(s model.SwitchID) model.GroupID {
		if s <= 2 {
			return 1
		}
		return 2
	}
	if got := m.InterGroup(assign); got != 5 {
		t.Errorf("InterGroup = %v, want 5", got)
	}
	want := 5.0 / 35.0
	if got := m.NormalizedInterGroup(assign); math.Abs(got-want) > 1e-12 {
		t.Errorf("NormalizedInterGroup = %v, want %v", got, want)
	}
}

func TestInterGroupUnassignedCountsAsInter(t *testing.T) {
	m := NewIntensity()
	m.Add(1, 2, 10)
	assign := func(s model.SwitchID) model.GroupID { return model.NoGroup }
	if got := m.InterGroup(assign); got != 10 {
		t.Errorf("InterGroup = %v, want 10 for unassigned switches", got)
	}
}

func TestNormalizedInterGroupZeroTotal(t *testing.T) {
	m := NewIntensity()
	if got := m.NormalizedInterGroup(func(model.SwitchID) model.GroupID { return 1 }); got != 0 {
		t.Errorf("NormalizedInterGroup = %v on empty matrix, want 0", got)
	}
}

func TestIntensityClone(t *testing.T) {
	m := NewIntensity()
	m.Add(1, 2, 7)
	c := m.Clone()
	c.Add(1, 2, 3)
	if m.Pair(1, 2) != 7 {
		t.Errorf("clone mutation leaked: Pair = %v, want 7", m.Pair(1, 2))
	}
	if c.Pair(1, 2) != 10 {
		t.Errorf("clone Pair = %v, want 10", c.Pair(1, 2))
	}
}

func TestIntensityDecay(t *testing.T) {
	m := NewIntensity()
	m.Add(1, 2, 10)
	m.Add(3, 4, 1e-12)
	m.Decay(0.5)
	if got := m.Pair(1, 2); got != 5 {
		t.Errorf("Pair after decay = %v, want 5", got)
	}
	if m.Pair(3, 4) != 0 {
		t.Error("tiny entry not evicted by decay")
	}
	if math.Abs(m.Total()-5) > 1e-12 {
		t.Errorf("Total after decay = %v, want 5", m.Total())
	}
	// Invalid factors are no-ops.
	m.Decay(0)
	m.Decay(1.5)
	if math.Abs(m.Total()-5) > 1e-12 {
		t.Errorf("Total after invalid decay = %v, want 5", m.Total())
	}
}

// TestSwitchesNeverChange pins Switches' sharing contract: the list is
// sorted as switches register, and a later registration — above every
// switch, between them, or in a clone — leaves every slice handed out
// earlier as it was.
func TestSwitchesNeverChange(t *testing.T) {
	m := NewIntensity()
	for _, s := range []model.SwitchID{10, 30, 20, 40} {
		m.AddSwitch(s)
	}
	before := m.Switches()
	want := []model.SwitchID{10, 20, 30, 40}
	if !slices.Equal(before, want) {
		t.Fatalf("Switches() = %v, want %v", before, want)
	}
	c := m.Clone()
	m.AddSwitch(50) // above every switch
	c.AddSwitch(60)
	m.AddSwitch(25) // between two
	c.Add(5, 35, 1)
	if !slices.Equal(before, want) {
		t.Errorf("a handed-out list changed to %v, want %v", before, want)
	}
	if got := m.Switches(); !slices.Equal(got, []model.SwitchID{10, 20, 25, 30, 40, 50}) {
		t.Errorf("Switches() = %v after registrations", got)
	}
	if got := c.Switches(); !slices.Equal(got, []model.SwitchID{5, 10, 20, 30, 35, 40, 60}) {
		t.Errorf("clone Switches() = %v after registrations", got)
	}
}

// TestAddNMatchesRepeatedAdd pins AddN to n calls of Add, bit for bit:
// random pairs, self-pairs and n = 0 included, onto weights that earlier
// steps (and a decay) left behind.
func TestAddNMatchesRepeatedAdd(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	got, want := NewIntensity(), NewIntensity()
	for step := range 3000 {
		a := model.SwitchID(1 + rng.IntN(16))
		b := model.SwitchID(1 + rng.IntN(16))
		if step%10 == 0 {
			b = a
		}
		n := uint32(rng.IntN(60))
		rate := 1 / float64(1+rng.IntN(5000))
		got.AddN(a, b, rate, n)
		for range n {
			want.Add(a, b, rate)
		}
		if step == 1500 {
			got.Decay(0.3)
			want.Decay(0.3)
		}
		if !reflect.DeepEqual(got.Clone(), want.Clone()) {
			t.Fatalf("step %d: AddN(%v, %v, %v, %d) leaves a matrix unlike %d Adds", step, a, b, rate, n, n)
		}
		if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) ||
			math.Float64bits(got.MaxPair()) != math.Float64bits(want.MaxPair()) {
			t.Fatalf("step %d: total %v, max pair %v; repeated Add %v, %v",
				step, got.Total(), got.MaxPair(), want.Total(), want.MaxPair())
		}
	}
}

// matrixState renders everything a reader of m can see: totals, the
// sorted switch list, every switch's index and every neighbor entry,
// weights bit for bit.
func matrixState(m *Intensity) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %x max %x switches %v idx %d\n",
		math.Float64bits(m.Total()), math.Float64bits(m.MaxPair()), m.Switches(), len(m.idx))
	for i, s := range m.ids {
		fmt.Fprintf(&b, "%d=%v(%d):", i, s, m.idx[s])
		for _, e := range m.adj[i] {
			fmt.Fprintf(&b, " %d/%x", e.to, math.Float64bits(e.w))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCloneSnapshotIsolated writes through every writer on either side
// of a Clone and checks that the other side, and a Switches list handed
// out before, read exactly what they read before the write.
func TestCloneSnapshotIsolated(t *testing.T) {
	writers := []struct {
		name  string
		write func(m *Intensity)
	}{
		{"AddN on a held pair", func(m *Intensity) { m.AddN(1, 2, 0.5, 3) }},
		{"AddN registering a switch", func(m *Intensity) { m.AddN(1, 99, 2, 1) }},
		{"AddSwitch registering a switch between two", func(m *Intensity) { m.AddSwitch(3) }},
		{"AddSwitch registering a switch above all", func(m *Intensity) { m.AddSwitch(98) }},
		{"Decay", func(m *Intensity) { m.Decay(0.5) }},
		{"Decay evicting a pair", func(m *Intensity) { m.Decay(1e-3) }},
	}
	for _, w := range writers {
		for _, side := range []string{"source", "clone"} {
			t.Run(w.name+" on the "+side, func(t *testing.T) {
				m := NewIntensity()
				for _, p := range [][2]model.SwitchID{{1, 2}, {2, 4}, {4, 6}, {1, 6}} {
					m.Add(p[0], p[1], 10)
				}
				m.Add(2, 6, 5e-10) // evicted by the stronger decay
				c := m.Clone()
				written, other := m, c
				if side == "clone" {
					written, other = c, m
				}
				listed := other.Switches()
				want, wantListed := matrixState(other), slices.Clone(listed)
				before := matrixState(written)
				w.write(written)
				if got := matrixState(other); got != want {
					t.Fatalf("the other side changed:\n%s\nwant:\n%s", got, want)
				}
				if !slices.Equal(listed, wantListed) {
					t.Fatalf("a handed-out list changed to %v, want %v", listed, wantListed)
				}
				if matrixState(written) == before {
					t.Fatal("the write did not land on the written side")
				}
				// The other side writes in turn and leaves the first as is.
				want = matrixState(written)
				other.Add(4, 99, 1)
				if got := matrixState(written); got != want {
					t.Fatalf("a write to the other side leaked:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}

// TestConcurrentCloneOfSharedMatrix clones one matrix from several
// goroutines at once, as parallel emulations clone one warmup matrix,
// and writes each clone. Run under -race, it fails on any write to
// shared storage.
func TestConcurrentCloneOfSharedMatrix(t *testing.T) {
	shared, _ := communityIntensity(4, 10, 3)
	want := matrixState(shared)
	ref := shared.Clone()
	ref.Add(1, 500, 2)
	ref.Decay(0.5)
	ref.Add(1, 2, 3)
	wantClone := matrixState(ref)
	var wg sync.WaitGroup
	got := make([]string, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := shared.Clone()
			c.Add(1, 500, 2)
			c.Decay(0.5)
			c.Add(1, 2, 3)
			got[g] = matrixState(c)
		}()
	}
	wg.Wait()
	for g, s := range got {
		if s != wantClone {
			t.Errorf("clone %d reads\n%s\nwant\n%s", g, s, wantClone)
		}
	}
	if matrixState(shared) != want {
		t.Error("the shared matrix changed")
	}
}

// cloneSink keeps TestCloneAllocationsConstant's clones on the heap, as
// an SGI's snapshot is.
var cloneSink *Intensity

// TestCloneAllocationsConstant pins Clone at one allocation, the header,
// whatever the matrix's size: the storage is shared until a write.
func TestCloneAllocationsConstant(t *testing.T) {
	for _, groups := range []int{2, 30} {
		m, _ := communityIntensity(groups, 20, 5)
		if got := testing.AllocsPerRun(20, func() { cloneSink = m.Clone() }); got != 1 {
			t.Errorf("Clone of %d switches allocates %v times, want 1", m.NumSwitches(), got)
		}
	}
}
