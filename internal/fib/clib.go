package fib

import (
	"slices"

	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// CLIBEntry is a host-location binding in the controller's C-LIB,
// including the group of the hosting switch for inter-group decisions.
type CLIBEntry struct {
	MAC    model.MAC
	IP     model.IP
	VLAN   model.VLAN
	Switch model.SwitchID
	Group  model.GroupID
}

// CLIB is the Central Location Information Base: the union of all
// switches' L-FIBs, maintained by the controller from designated-switch
// state reports (§III-B2). It answers inter-group location queries and
// scopes ARP relay by tenant.
//
// The table has one owner goroutine (the controller's) and takes no
// locks. Its only concurrent user is Controller.ProcessBurst's decide
// phase, whose workers call Locate while nothing writes: every writer
// runs on the owner goroutine, and the caller delivers nothing else
// while a burst is in flight.
type CLIB struct {
	byMAC    map[model.MAC]CLIBEntry
	bySwitch map[model.SwitchID]map[model.MAC]struct{}
	byVLAN   map[model.VLAN]map[model.SwitchID]int // VLAN -> switch -> host count

	// swVersions records, per origin switch, the highest L-FIB version
	// folded into the C-LIB (from LFIBUpdate.Version). It is the
	// version the controller stamps on G-FIB preload filters so edge
	// receivers can match them against designated-switch dissemination
	// and so preload deltas have well-defined base/target coordinates.
	swVersions map[model.SwitchID]uint64
}

// NewCLIB returns an empty C-LIB.
func NewCLIB() *CLIB {
	return &CLIB{
		byMAC:      make(map[model.MAC]CLIBEntry),
		bySwitch:   make(map[model.SwitchID]map[model.MAC]struct{}),
		byVLAN:     make(map[model.VLAN]map[model.SwitchID]int),
		swVersions: make(map[model.SwitchID]uint64),
	}
}

// Update installs or moves a binding.
func (c *CLIB) Update(mac model.MAC, ip model.IP, vlan model.VLAN, sw model.SwitchID, group model.GroupID) {
	if old, ok := c.byMAC[mac]; ok {
		if old.IP == ip && old.VLAN == vlan && old.Switch == sw && old.Group == group {
			return // binding unchanged; indexes already agree
		}
		c.unindex(old)
	}
	c.byMAC[mac] = CLIBEntry{MAC: mac, IP: ip, VLAN: vlan, Switch: sw, Group: group}
	if c.bySwitch[sw] == nil {
		c.bySwitch[sw] = make(map[model.MAC]struct{})
	}
	c.bySwitch[sw][mac] = struct{}{}
	if c.byVLAN[vlan] == nil {
		c.byVLAN[vlan] = make(map[model.SwitchID]int)
	}
	c.byVLAN[vlan][sw]++
}

// unindex removes an entry from the secondary indexes. Emptied
// sub-maps are kept, not deleted: full-snapshot churn (anti-entropy
// refreshes remove and re-add entries) empties them constantly, and
// recreating them dominated the allocation profile. The retained
// empties are bounded by #switches + #VLANs.
func (c *CLIB) unindex(e CLIBEntry) {
	delete(c.bySwitch[e.Switch], e.MAC)
	if m := c.byVLAN[e.VLAN]; m != nil {
		m[e.Switch]--
		if m[e.Switch] <= 0 {
			delete(m, e.Switch)
		}
	}
}

// Remove deletes a binding.
func (c *CLIB) Remove(mac model.MAC) {
	e, ok := c.byMAC[mac]
	if !ok {
		return
	}
	c.unindex(e)
	delete(c.byMAC, mac)
}

// Locate returns the switch hosting a MAC, without allocating (packet-in
// handling).
func (c *CLIB) Locate(mac model.MAC) (model.SwitchID, bool) {
	if e, ok := c.byMAC[mac]; ok {
		return e.Switch, true
	}
	return 0, false
}

// ApplyLFIB merges an L-FIB snapshot or increment from a switch,
// tagging entries with the switch's group. When the update is full, any
// binding previously attributed to that switch but absent from the
// snapshot is dropped.
func (c *CLIB) ApplyLFIB(sw model.SwitchID, group model.GroupID, u *openflow.LFIBUpdate) {
	// Only full snapshots advance the recorded version: they are
	// complete by construction, so a filter stamped with a snapshot
	// version can never miss state that version implies. Increments
	// (report-chain forwards, single-binding ARP answers) merge their
	// entries but leave the stamp — the extra content only adds
	// false-positive bits to preload filters, never false negatives,
	// whereas stamping an incomplete entry set with a high version
	// would poison every receiver that trusts version equality.
	if u.Full {
		if u.Version > 0 && u.Version == c.swVersions[sw] {
			// Anti-entropy refresh of an unchanged L-FIB: the recorded
			// version was stamped by an earlier full snapshot of the
			// same version (eviction clears the stamp, so a recovered
			// switch never matches), and the origin bumps its version
			// on every content change — the entry set is therefore
			// already folded in verbatim. Group retags ride SetGroup,
			// not re-application. Skipping here is what keeps the
			// every-Nth full refresh O(1) on quiescent switches.
			return
		}
		if u.Version > c.swVersions[sw] {
			c.swVersions[sw] = u.Version
		}
		seen := make(map[model.MAC]struct{}, len(u.Entries))
		for _, e := range u.Entries {
			seen[e.MAC] = struct{}{}
		}
		for mac := range c.bySwitch[sw] {
			if _, ok := seen[mac]; !ok {
				c.Remove(mac)
			}
		}
	}
	for _, e := range u.Entries {
		c.Update(e.MAC, e.IP, e.VLAN, sw, group)
	}
}

// SetGroup retags every binding on a switch with a new group (after
// regrouping; the host-to-switch mapping itself is unchanged, §III-D3).
func (c *CLIB) SetGroup(sw model.SwitchID, group model.GroupID) {
	for mac := range c.bySwitch[sw] {
		e := c.byMAC[mac]
		e.Group = group
		c.byMAC[mac] = e
	}
}

// SwitchesWithVLAN returns the switches hosting at least one host of the
// given VLAN (tenant), ascending. The controller uses it to scope ARP
// relay (§III-D3 level iii).
func (c *CLIB) SwitchesWithVLAN(vlan model.VLAN) []model.SwitchID {
	out := make([]model.SwitchID, 0, len(c.byVLAN[vlan]))
	for sw := range c.byVLAN[vlan] {
		out = append(out, sw)
	}
	slices.Sort(out)
	return out
}

// EntriesOn returns the wire form of every binding attributed to a
// switch, sorted by MAC. The controller uses it to preload peer state
// into regrouped switches inside the batched group-config push.
func (c *CLIB) EntriesOn(sw model.SwitchID) []openflow.LFIBEntry {
	macs := c.bySwitch[sw]
	if len(macs) == 0 {
		return nil
	}
	out := make([]openflow.LFIBEntry, 0, len(macs))
	for mac := range macs {
		e := c.byMAC[mac]
		out = append(out, openflow.LFIBEntry{MAC: e.MAC, IP: e.IP, VLAN: e.VLAN})
	}
	slices.SortFunc(out, wireByMAC)
	return out
}

// VersionOn returns the highest L-FIB version folded into the C-LIB
// for a switch (0 when the switch has never reported).
func (c *CLIB) VersionOn(sw model.SwitchID) uint64 { return c.swVersions[sw] }

// RemoveSwitch drops every binding attributed to a switch and returns
// how many were removed (failover eviction). The switch's recorded
// L-FIB version is dropped too: a rebooted switch restarts its version
// counter, so keeping the old high-water mark would silently discard
// its fresh post-recovery reports.
func (c *CLIB) RemoveSwitch(sw model.SwitchID) int {
	delete(c.swVersions, sw)
	removed := len(c.bySwitch[sw])
	for mac := range c.bySwitch[sw] {
		c.Remove(mac)
	}
	return removed
}
