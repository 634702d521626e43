package fib

import (
	"testing"

	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

func TestCLIBLocateFastPath(t *testing.T) {
	c := NewCLIB()
	c.Update(model.HostMAC(1), model.HostIP(1), 5, 11, 2)
	sw, ok := c.Locate(model.HostMAC(1))
	if !ok || sw != 11 {
		t.Errorf("Locate = %v,%v, want 11,true", sw, ok)
	}
	if _, ok := c.Locate(model.HostMAC(2)); ok {
		t.Error("Locate found a missing MAC")
	}
}

func TestCLIBEntriesOnSorted(t *testing.T) {
	c := NewCLIB()
	// Insert in descending order; EntriesOn must come back ascending.
	for _, h := range []model.HostID{30, 20, 10} {
		c.Update(model.HostMAC(h), model.HostIP(h), 1, 7, 1)
	}
	c.Update(model.HostMAC(40), model.HostIP(40), 1, 8, 1)
	got := c.EntriesOn(7)
	if len(got) != 3 {
		t.Fatalf("EntriesOn(7) = %d entries, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].MAC.Uint64() >= got[i].MAC.Uint64() {
			t.Fatalf("entries not sorted: %v", got)
		}
	}
	if got := c.EntriesOn(9); len(got) != 0 {
		t.Errorf("EntriesOn(9) = %v, want empty", got)
	}
}

func TestCLIBRemoveSwitch(t *testing.T) {
	c := NewCLIB()
	for h := model.HostID(1); h <= 40; h++ {
		sw := model.SwitchID(1 + h%2)
		c.Update(model.HostMAC(h), model.HostIP(h), 1, sw, 1)
	}
	if got := c.RemoveSwitch(2); got != 20 {
		t.Errorf("RemoveSwitch(2) = %d, want 20", got)
	}
	if len(c.byMAC) != 20 || len(c.bySwitch[2]) != 0 || len(c.bySwitch[1]) != 20 {
		t.Errorf("after eviction: len=%d on1=%d on2=%d", len(c.byMAC), len(c.bySwitch[1]), len(c.bySwitch[2]))
	}
	if got := c.SwitchesWithVLAN(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("SwitchesWithVLAN = %v, want [1]", got)
	}
	if c.RemoveSwitch(2) != 0 {
		t.Error("second eviction removed entries")
	}
}

func TestCLIBApplyLFIBFullPrunesEveryStaleHost(t *testing.T) {
	c := NewCLIB()
	// 64 hosts on switch 5; the prune below removes 60 of them while it
	// ranges over the switch's index.
	for h := model.HostID(1); h <= 64; h++ {
		c.Update(model.HostMAC(h), model.HostIP(h), 1, 5, 1)
	}
	// A full snapshot now claims only hosts 1..4.
	u := &openflow.LFIBUpdate{Origin: 5, Full: true}
	for h := model.HostID(1); h <= 4; h++ {
		u.Entries = append(u.Entries, openflow.LFIBEntry{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1})
	}
	c.ApplyLFIB(5, 1, u)
	if len(c.byMAC) != 4 || len(c.bySwitch[5]) != 4 {
		t.Errorf("after full snapshot: len=%d on5=%d, want 4/4", len(c.byMAC), len(c.bySwitch[5]))
	}
	for h := model.HostID(5); h <= 64; h++ {
		if _, ok := c.Locate(model.HostMAC(h)); ok {
			t.Fatalf("stale host %d survived the full snapshot", h)
		}
	}
}
