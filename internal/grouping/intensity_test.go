package grouping

import (
	"math"
	"slices"
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
