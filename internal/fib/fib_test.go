package fib

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// Entries returns all bindings sorted by MAC.
func (l *LFIB) Entries() []LFIBEntry {
	out := append(make([]LFIBEntry, 0, len(l.entries)), l.entries...)
	slices.SortFunc(out, func(a, b LFIBEntry) int { return cmp.Compare(a.MAC.Uint64(), b.MAC.Uint64()) })
	return out
}

func TestLFIBLearnAndLookup(t *testing.T) {
	l := NewLFIB()
	mac := model.HostMAC(1)
	if !l.Learn(mac, model.HostIP(1), 2, 3, 0) {
		t.Error("first Learn returned false")
	}
	e := l.Lookup(mac)
	if e == nil || e.Port != 3 || e.VLAN != 2 {
		t.Fatalf("Lookup = %+v", e)
	}
	// Refresh without change: no structural update.
	if l.Learn(mac, model.HostIP(1), 2, 3, time.Second) {
		t.Error("refresh reported structural change")
	}
	// Port move is structural.
	if !l.Learn(mac, model.HostIP(1), 2, 9, 2*time.Second) {
		t.Error("port move not reported")
	}
}

func TestLFIBLookupIP(t *testing.T) {
	l := NewLFIB()
	l.Learn(model.HostMAC(1), model.HostIP(1), 1, 1, 0)
	l.Learn(model.HostMAC(2), model.HostIP(2), 1, 2, 0)
	e := l.LookupIP(model.HostIP(2))
	if e == nil || e.MAC != model.HostMAC(2) {
		t.Errorf("LookupIP = %+v", e)
	}
	if l.LookupIP(model.HostIP(99)) != nil {
		t.Error("LookupIP found nonexistent IP")
	}
}

// TestLFIBRemoveAndExpire pins Remove; bindings do not expire.
func TestLFIBRemoveAndExpire(t *testing.T) {
	l := NewLFIB()
	l.Learn(model.HostMAC(1), model.HostIP(1), 1, 1, 0)
	l.Learn(model.HostMAC(2), model.HostIP(2), 1, 1, 5*time.Second)
	if !l.Remove(model.HostMAC(1)) {
		t.Error("Remove existing = false")
	}
	if l.Remove(model.HostMAC(1)) {
		t.Error("Remove missing = true")
	}
	if len(l.byMAC) != 1 {
		t.Errorf("Len = %d, want 1", len(l.byMAC))
	}
}

// TestLFIBRemoveKeepsIndex pins the swap-delete: after a middle entry
// goes, every remaining MAC still looks up to its own binding and
// Entries keeps its MAC order.
func TestLFIBRemoveKeepsIndex(t *testing.T) {
	l := NewLFIB()
	for i := 1; i <= 9; i++ {
		l.Learn(model.HostMAC(model.HostID(i)), model.HostIP(model.HostID(i)), 1, uint16(i), 0)
	}
	want := l.Entries()
	if !l.Remove(model.HostMAC(5)) {
		t.Fatal("Remove existing = false")
	}
	want = append(want[:4], want[5:]...)
	for i := 1; i <= 9; i++ {
		mac := model.HostMAC(model.HostID(i))
		e := l.Lookup(mac)
		if i == 5 {
			if e != nil {
				t.Errorf("removed MAC still looks up to %+v", *e)
			}
			continue
		}
		if e == nil || e.MAC != mac || e.IP != model.HostIP(model.HostID(i)) || e.Port != uint16(i) {
			t.Errorf("Lookup(host %d) = %+v", i, e)
		}
	}
	if got := l.Entries(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Entries after Remove = %v, want %v", got, want)
	}
}

// TestLFIBLearnDoesNotAllocate pins a binding at a slot, not an object:
// learning into a table with spare capacity and looking the binding up
// allocate nothing.
func TestLFIBLearnDoesNotAllocate(t *testing.T) {
	l := NewLFIB()
	for i := 1; i <= 64; i++ {
		l.Learn(model.HostMAC(model.HostID(i)), model.HostIP(model.HostID(i)), 1, 1, 0)
	}
	mac := model.HostMAC(64)
	l.Remove(mac)
	if n := testing.AllocsPerRun(100, func() {
		l.Learn(mac, model.HostIP(64), 1, 2, 0)
		if l.Lookup(mac) == nil {
			t.Fatal("learned binding missing")
		}
		l.Remove(mac)
	}); n != 0 {
		t.Errorf("Learn + Lookup + Remove = %v allocs, want 0", n)
	}
}

func TestLFIBVersionAdvances(t *testing.T) {
	l := NewLFIB()
	v0 := l.Version()
	l.Learn(model.HostMAC(1), model.HostIP(1), 1, 1, 0)
	if l.Version() == v0 {
		t.Error("version unchanged after Learn")
	}
	v1 := l.Version()
	l.Learn(model.HostMAC(1), model.HostIP(1), 1, 1, time.Second)
	if l.Version() != v1 {
		t.Error("version changed on pure refresh")
	}
}

func TestLFIBEntriesSorted(t *testing.T) {
	l := NewLFIB()
	l.Learn(model.HostMAC(30), model.HostIP(30), 1, 1, 0)
	l.Learn(model.HostMAC(10), model.HostIP(10), 1, 1, 0)
	l.Learn(model.HostMAC(20), model.HostIP(20), 1, 1, 0)
	entries := l.Entries()
	for i := 1; i < len(entries); i++ {
		if entries[i-1].MAC.Uint64() >= entries[i].MAC.Uint64() {
			t.Fatalf("entries not sorted: %v", entries)
		}
	}
	wire := l.WireEntries()
	if len(wire) != 3 || wire[0].MAC != model.HostMAC(10) {
		t.Errorf("WireEntries = %v", wire)
	}
}

func TestLFIBFilter(t *testing.T) {
	l := NewLFIB()
	for i := uint32(1); i <= 20; i++ {
		l.Learn(model.HostMAC(model.HostID(i)), model.HostIP(model.HostID(i)), 1, 1, 0)
	}
	f := FilterFromWireEntries(l.WireEntries(), DefaultFilterBits, DefaultFilterHashes)
	for i := uint32(1); i <= 20; i++ {
		if !f.TestUint64(model.HostMAC(model.HostID(i)).Uint64()) {
			t.Fatalf("filter missing host %d", i)
		}
	}
	if f.SizeBytes() != 2048 {
		t.Errorf("filter SizeBytes = %d, want 2048", f.SizeBytes())
	}
}

func TestGFIBQuery(t *testing.T) {
	g := NewGFIB()
	mkFilter := func(hosts ...model.HostID) *bloom.Filter {
		f := bloom.New(DefaultFilterBits, DefaultFilterHashes)
		for _, h := range hosts {
			f.AddUint64(model.HostMAC(h).Uint64())
		}
		return f
	}
	g.SetFilter(2, mkFilter(100, 101))
	g.SetFilter(3, mkFilter(200))
	g.SetFilter(4, mkFilter())

	got := g.Query(model.HostMAC(100))
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Query(100) = %v, want [2]", got)
	}
	got = g.Query(model.HostMAC(200))
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("Query(200) = %v, want [3]", got)
	}
	if got = g.Query(model.HostMAC(999)); len(got) != 0 {
		t.Errorf("Query(999) = %v, want empty", got)
	}
}

func TestGFIBSetFilterBytesAndSize(t *testing.T) {
	g := NewGFIB()
	f := bloom.New(DefaultFilterBits, DefaultFilterHashes)
	f.AddUint64(model.HostMAC(7).Uint64())
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetFilterBytes(9, data, 4); err != nil {
		t.Fatalf("SetFilterBytes: %v", err)
	}
	if got := g.Query(model.HostMAC(7)); len(got) != 1 || got[0] != 9 {
		t.Errorf("Query = %v, want [9]", got)
	}
	if v, ok := g.PeerVersion(9); !ok || v != 4 {
		t.Errorf("PeerVersion(9) = %d,%v, want 4,true", v, ok)
	}
	if err := g.SetFilterBytes(10, []byte("garbage"), 1); err == nil {
		t.Error("SetFilterBytes accepted garbage")
	}
	if g.SizeBytes() != 2048 {
		t.Errorf("SizeBytes = %d, want 2048", g.SizeBytes())
	}
}

func TestGFIBPaperStorage(t *testing.T) {
	// §V-D: 46-switch group -> 45 filters -> 92,160 bytes.
	g := NewGFIB()
	for i := 1; i <= 45; i++ {
		g.SetFilter(model.SwitchID(i), bloom.New(DefaultFilterBits, DefaultFilterHashes))
	}
	if g.SizeBytes() != 92160 {
		t.Errorf("SizeBytes = %d, want 92160", g.SizeBytes())
	}
}

func TestGFIBRemoveAndClear(t *testing.T) {
	g := NewGFIB()
	g.SetFilter(1, bloom.New(128, 2))
	g.SetFilter(2, bloom.New(128, 2))
	g.RemoveFilter(1)
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
	if peers := g.Peers(); len(peers) != 1 || peers[0] != 2 {
		t.Errorf("Peers = %v, want [2]", peers)
	}
	if g.RemoveFilter(99) {
		t.Error("RemoveFilter(absent) = true")
	}
	g.Clear()
	if g.Len() != 0 {
		t.Errorf("Len after Clear = %d, want 0", g.Len())
	}
	g.Clear() // idempotent on empty
}

func TestCLIBUpdateLookup(t *testing.T) {
	c := NewCLIB()
	c.Update(model.HostMAC(1), model.HostIP(1), 5, 10, 2)
	e, ok := c.byMAC[model.HostMAC(1)]
	if !ok || e.Switch != 10 || e.Group != 2 {
		t.Fatalf("Lookup = %+v", e)
	}
	// Migration: binding moves to another switch.
	c.Update(model.HostMAC(1), model.HostIP(1), 5, 11, 3)
	if e := c.byMAC[model.HostMAC(1)]; e.Switch != 11 || e.Group != 3 {
		t.Errorf("after move: %+v", e)
	}
	if len(c.bySwitch[10]) != 0 {
		t.Errorf("HostsOn(10) = %d after move, want 0", len(c.bySwitch[10]))
	}
	if len(c.bySwitch[11]) != 1 {
		t.Errorf("HostsOn(11) = %d, want 1", len(c.bySwitch[11]))
	}
}

func TestCLIBRemove(t *testing.T) {
	c := NewCLIB()
	c.Update(model.HostMAC(1), model.HostIP(1), 5, 10, 2)
	c.Remove(model.HostMAC(1))
	if _, ok := c.byMAC[model.HostMAC(1)]; ok {
		t.Error("binding survives Remove")
	}
	if len(c.byMAC) != 0 {
		t.Errorf("Len = %d, want 0", len(c.byMAC))
	}
	c.Remove(model.HostMAC(1)) // idempotent
}

func TestCLIBSwitchesWithVLAN(t *testing.T) {
	c := NewCLIB()
	c.Update(model.HostMAC(1), model.HostIP(1), 7, 10, 1)
	c.Update(model.HostMAC(2), model.HostIP(2), 7, 12, 1)
	c.Update(model.HostMAC(3), model.HostIP(3), 8, 11, 1)
	got := c.SwitchesWithVLAN(7)
	if len(got) != 2 || got[0] != 10 || got[1] != 12 {
		t.Errorf("SwitchesWithVLAN(7) = %v, want [10 12]", got)
	}
	// Removing the only VLAN-7 host on switch 10 shrinks the set.
	c.Remove(model.HostMAC(1))
	got = c.SwitchesWithVLAN(7)
	if len(got) != 1 || got[0] != 12 {
		t.Errorf("SwitchesWithVLAN(7) = %v after removal, want [12]", got)
	}
}

func TestCLIBApplyLFIBFullReplacesStale(t *testing.T) {
	c := NewCLIB()
	c.Update(model.HostMAC(1), model.HostIP(1), 1, 10, 1)
	c.Update(model.HostMAC(2), model.HostIP(2), 1, 10, 1)
	// Full snapshot from switch 10 now only contains host 2 and a new
	// host 3.
	u := &openflow.LFIBUpdate{
		Origin: 10,
		Full:   true,
		Entries: []openflow.LFIBEntry{
			{MAC: model.HostMAC(2), IP: model.HostIP(2), VLAN: 1},
			{MAC: model.HostMAC(3), IP: model.HostIP(3), VLAN: 1},
		},
	}
	c.ApplyLFIB(10, 1, u)
	if _, ok := c.byMAC[model.HostMAC(1)]; ok {
		t.Error("stale binding survived full snapshot")
	}
	if _, ok := c.byMAC[model.HostMAC(3)]; !ok {
		t.Error("new binding missing")
	}
	if len(c.bySwitch[10]) != 2 {
		t.Errorf("HostsOn = %d, want 2", len(c.bySwitch[10]))
	}
}

func TestCLIBApplyLFIBIncremental(t *testing.T) {
	c := NewCLIB()
	c.Update(model.HostMAC(1), model.HostIP(1), 1, 10, 1)
	u := &openflow.LFIBUpdate{
		Origin:  10,
		Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(2), IP: model.HostIP(2), VLAN: 1}},
	}
	c.ApplyLFIB(10, 1, u)
	_, ok1 := c.byMAC[model.HostMAC(1)]
	_, ok2 := c.byMAC[model.HostMAC(2)]
	if !ok1 || !ok2 {
		t.Error("incremental update dropped or missed bindings")
	}
}

func TestCLIBSetGroup(t *testing.T) {
	c := NewCLIB()
	c.Update(model.HostMAC(1), model.HostIP(1), 1, 10, 1)
	c.Update(model.HostMAC(2), model.HostIP(2), 1, 10, 1)
	c.Update(model.HostMAC(3), model.HostIP(3), 1, 11, 1)
	c.SetGroup(10, 9)
	if c.byMAC[model.HostMAC(1)].Group != 9 || c.byMAC[model.HostMAC(2)].Group != 9 {
		t.Error("SetGroup missed bindings on switch 10")
	}
	if c.byMAC[model.HostMAC(3)].Group != 1 {
		t.Error("SetGroup touched another switch")
	}
}

func TestLFIBDrainChanges(t *testing.T) {
	l := NewLFIB()
	l.Learn(model.HostMAC(1), model.HostIP(1), 1, 1, 0)
	l.Learn(model.HostMAC(2), model.HostIP(2), 1, 1, 0)
	// First drain with the table fully dirty degrades to a snapshot.
	entries, full := l.DrainChanges()
	if !full || len(entries) != 2 {
		t.Fatalf("bootstrap drain = %d entries full=%v, want 2/true", len(entries), full)
	}
	// A single new binding drains as a one-entry increment.
	l.Learn(model.HostMAC(3), model.HostIP(3), 1, 1, 0)
	entries, full = l.DrainChanges()
	if full || len(entries) != 1 || entries[0].MAC != model.HostMAC(3) {
		t.Fatalf("increment drain = %+v full=%v, want the new binding only", entries, full)
	}
	// A drain with no changes is empty.
	if entries, full = l.DrainChanges(); full || len(entries) != 0 {
		t.Fatalf("idle drain = %d entries full=%v", len(entries), full)
	}
	// Removals cannot travel as increments: the next drain is full.
	l.Remove(model.HostMAC(2))
	entries, full = l.DrainChanges()
	if !full || len(entries) != 2 {
		t.Fatalf("post-removal drain = %d entries full=%v, want 2/true", len(entries), full)
	}
}

func TestGFIBApplyDelta(t *testing.T) {
	build := func(hosts ...model.HostID) *bloom.Filter {
		f := bloom.New(DefaultFilterBits, DefaultFilterHashes)
		for _, h := range hosts {
			f.AddUint64(MACKey(model.HostMAC(h)))
		}
		return f
	}
	v1 := build(1, 2)
	v2 := build(1, 2, 3)
	data1, _ := v1.MarshalBinary()

	g := NewGFIB()
	if err := g.SetFilterBytes(9, data1, 1); err != nil {
		t.Fatal(err)
	}
	words, err := v2.DiffWords(v1)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong base: rejected with ErrDeltaBase, filter untouched.
	if err := g.ApplyDelta(9, 5, 6, words); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("ApplyDelta with wrong base = %v, want ErrDeltaBase", err)
	}
	// Unknown peer: same.
	if err := g.ApplyDelta(77, 1, 2, words); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("ApplyDelta for unknown peer = %v, want ErrDeltaBase", err)
	}
	// Matching base: applies, moves the version, and the result is
	// byte-identical to a full install of v2.
	if err := g.ApplyDelta(9, 1, 2, words); err != nil {
		t.Fatal(err)
	}
	if v, _ := g.PeerVersion(9); v != 2 {
		t.Errorf("PeerVersion after delta = %d, want 2", v)
	}
	want, _ := v2.MarshalBinary()
	if got := snapshotBytes(g)[9]; !bytes.Equal(got, want) {
		t.Error("delta-applied filter differs from full install")
	}
	if got := g.Query(model.HostMAC(3)); len(got) != 1 || got[0] != 9 {
		t.Errorf("Query(3) after delta = %v, want [9]", got)
	}
}

// snapshotBytes reads every installed filter's encoding through
// AppendFilter, keyed by peer.
func snapshotBytes(g *GFIB) map[model.SwitchID][]byte {
	out := make(map[model.SwitchID][]byte, g.Len())
	for i := 0; i < g.Len(); i++ {
		peer, _ := g.At(i)
		out[peer] = g.AppendFilter(nil, i)
	}
	return out
}

// TestGFIBAppendFilter pins the byte walk: AppendFilter extends dst
// with exactly MarshalBinary's encoding of the i-th filter, and a
// reused buffer makes the walk allocation-free.
func TestGFIBAppendFilter(t *testing.T) {
	g := NewGFIB()
	for _, peer := range []model.SwitchID{7, 3, 5} {
		f := bloom.New(DefaultFilterBits, DefaultFilterHashes)
		f.AddUint64(MACKey(model.HostMAC(model.HostID(peer))))
		g.SetFilter(peer, f)
	}
	for i := 0; i < g.Len(); i++ {
		peer, _ := g.At(i)
		want, _ := g.filter(peer).MarshalBinary()
		if got := g.AppendFilter([]byte("xy"), i); string(got) != "xy"+string(want) {
			t.Fatalf("AppendFilter(%d) for S%d is not the prefix followed by the encoding", i, peer)
		}
	}
	buf := g.AppendFilter(nil, 0)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < g.Len(); i++ {
			buf = g.AppendFilter(buf[:0], i)
		}
	}); n != 0 {
		t.Errorf("AppendFilter into a reused buffer: %v allocs per walk, want 0", n)
	}
}

// TestLFIBEpochMonotonicAcrossRestart pins the incarnation-epoch
// convention: a restarted L-FIB loses its bindings and change counter
// but its advertised versions strictly dominate every pre-restart one,
// so version-ordering receivers never refuse post-reboot state.
func TestLFIBEpochMonotonicAcrossRestart(t *testing.T) {
	l := NewLFIB()
	for i := 1; i <= 100; i++ {
		l.Learn(model.HostMAC(model.HostID(i)), model.HostIP(model.HostID(i)), 1, 1, 0)
	}
	before := l.Version()
	if before == 0 || l.epoch != 0 {
		t.Fatalf("pre-restart version=%d epoch=%d", before, l.epoch)
	}
	l.Restart()
	if len(l.byMAC) != 0 {
		t.Errorf("Restart kept %d bindings", len(l.byMAC))
	}
	if l.epoch != 1 {
		t.Errorf("epoch = %d, want 1", l.epoch)
	}
	if l.Version() <= before {
		t.Errorf("post-restart version %d not above pre-restart %d", l.Version(), before)
	}
	// The fresh incarnation's changes advance the composite version.
	v0 := l.Version()
	l.Learn(model.HostMAC(1), model.HostIP(1), 1, 1, 0)
	if l.Version() <= v0 {
		t.Errorf("post-restart Learn did not advance version")
	}
	// A second restart dominates again.
	l.Restart()
	if l.epoch != 2 || l.Version() <= v0 {
		t.Errorf("second restart: epoch=%d version=%d", l.epoch, l.Version())
	}
}

// TestCLIBAcceptsPostRebootSnapshot pins the epoch's point at the
// controller: a full snapshot from a rebooted switch (counter
// restarted, epoch advanced) advances the recorded version instead of
// being discarded as older than the pre-reboot stamp.
func TestCLIBAcceptsPostRebootSnapshot(t *testing.T) {
	c := NewCLIB()
	l := NewLFIB()
	for i := 1; i <= 10; i++ {
		l.Learn(model.HostMAC(model.HostID(i)), model.HostIP(model.HostID(i)), 1, 1, 0)
	}
	pre := l.Version()
	c.ApplyLFIB(3, 1, &openflow.LFIBUpdate{Origin: 3, Full: true, Entries: l.WireEntries(), Version: pre})
	if got := c.VersionOn(3); got != pre {
		t.Fatalf("VersionOn = %d, want %d", got, pre)
	}
	l.Restart()
	l.Learn(model.HostMAC(1), model.HostIP(1), 1, 1, 0)
	post := l.Version()
	c.ApplyLFIB(3, 1, &openflow.LFIBUpdate{Origin: 3, Full: true, Entries: l.WireEntries(), Version: post})
	if got := c.VersionOn(3); got != post {
		t.Errorf("post-reboot VersionOn = %d, want %d (epoch must dominate)", got, post)
	}
}
