package grouping

import (
	"fmt"
	"sort"

	"lazyctrl/internal/model"
)

// Grouping is a partition of the edge switches into local control groups
// (a "grouping scheme" G in the paper's notation).
type Grouping struct {
	// groups maps GroupID -> sorted member switches. IDs are dense,
	// starting at 1 (model.NoGroup = 0 is reserved).
	groups map[model.GroupID][]model.SwitchID
	assign map[model.SwitchID]model.GroupID
	nextID model.GroupID
	// version increments on every structural change (String shows it).
	version uint64
}

// NewGrouping returns an empty grouping.
func NewGrouping() *Grouping {
	return &Grouping{
		groups: make(map[model.GroupID][]model.SwitchID),
		assign: make(map[model.SwitchID]model.GroupID),
		nextID: 1,
	}
}

// AddGroup creates a new group with the given members and returns its ID.
// Members already assigned elsewhere are moved.
func (g *Grouping) AddGroup(members []model.SwitchID) model.GroupID {
	id := g.nextID
	g.nextID++
	sorted := append([]model.SwitchID(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, s := range sorted {
		if old, ok := g.assign[s]; ok {
			g.removeMember(old, s)
		}
		g.assign[s] = id
	}
	g.groups[id] = sorted
	g.version++
	return id
}

func (g *Grouping) removeMember(id model.GroupID, s model.SwitchID) {
	members := g.groups[id]
	for i, m := range members {
		if m == s {
			g.groups[id] = append(members[:i], members[i+1:]...)
			break
		}
	}
	if len(g.groups[id]) == 0 {
		delete(g.groups, id)
	}
}

// RemoveGroup deletes a group, unassigning its members.
func (g *Grouping) RemoveGroup(id model.GroupID) {
	for _, s := range g.groups[id] {
		delete(g.assign, s)
	}
	delete(g.groups, id)
	g.version++
}

// GroupOf returns the group of a switch (model.NoGroup if unassigned).
func (g *Grouping) GroupOf(s model.SwitchID) model.GroupID {
	return g.assign[s]
}

// Members returns the sorted members of a group. The caller must not
// modify the returned slice.
func (g *Grouping) Members(id model.GroupID) []model.SwitchID {
	return g.groups[id]
}

// GroupIDs returns all group IDs in ascending order.
func (g *Grouping) GroupIDs() []model.GroupID {
	ids := make([]model.GroupID, 0, len(g.groups))
	for id := range g.groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NumGroups returns the number of groups.
func (g *Grouping) NumGroups() int { return len(g.groups) }

// NumSwitches returns the number of assigned switches.
func (g *Grouping) NumSwitches() int { return len(g.assign) }

// MaxGroupSize returns the size of the largest group.
func (g *Grouping) MaxGroupSize() int {
	maxSize := 0
	for _, members := range g.groups {
		if len(members) > maxSize {
			maxSize = len(members)
		}
	}
	return maxSize
}

// Rebuild constructs a grouping from an explicit switch→group
// assignment, preserving the given group IDs verbatim. The standby
// controller replica uses it to mirror the master's grouping from a
// StateSyncRecord: group IDs appear in pushed configs and in the chaos
// fixpoint snapshot, so the replica must reproduce them exactly rather
// than re-derive a fresh dense numbering. Members are sorted and nextID
// is set past the highest ID so later AddGroup calls cannot collide.
func Rebuild(assign map[model.SwitchID]model.GroupID) *Grouping {
	g := NewGrouping()
	switches := make([]model.SwitchID, 0, len(assign))
	for s := range assign {
		switches = append(switches, s)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	for _, s := range switches {
		id := assign[s]
		if id == model.NoGroup {
			continue
		}
		g.groups[id] = append(g.groups[id], s)
		g.assign[s] = id
		if id >= g.nextID {
			g.nextID = id + 1
		}
	}
	g.version++
	return g
}

// Clone returns a deep copy of the grouping.
func (g *Grouping) Clone() *Grouping {
	c := NewGrouping()
	c.nextID = g.nextID
	c.version = g.version
	for id, members := range g.groups {
		c.groups[id] = append([]model.SwitchID(nil), members...)
	}
	for s, id := range g.assign {
		c.assign[s] = id
	}
	return c
}

// Validate checks structural invariants: disjoint groups, consistent
// assignment index, size limit.
func (g *Grouping) Validate(sizeLimit int) error {
	seen := make(map[model.SwitchID]model.GroupID)
	for id, members := range g.groups {
		if len(members) == 0 {
			return fmt.Errorf("grouping: empty group %v", id)
		}
		if sizeLimit > 0 && len(members) > sizeLimit {
			return fmt.Errorf("grouping: group %v has %d members, limit %d", id, len(members), sizeLimit)
		}
		for _, s := range members {
			if prev, dup := seen[s]; dup {
				return fmt.Errorf("grouping: switch %v in groups %v and %v", s, prev, id)
			}
			seen[s] = id
			if g.assign[s] != id {
				return fmt.Errorf("grouping: index says %v is in %v, membership says %v", s, g.assign[s], id)
			}
		}
	}
	if len(seen) != len(g.assign) {
		return fmt.Errorf("grouping: index has %d entries, groups have %d members", len(g.assign), len(seen))
	}
	return nil
}

// String summarizes the grouping.
func (g *Grouping) String() string {
	return fmt.Sprintf("Grouping{groups=%d switches=%d maxSize=%d v%d}",
		g.NumGroups(), g.NumSwitches(), g.MaxGroupSize(), g.version)
}
