// Package fib implements the three forwarding tables of the LazyCtrl
// design (§III-D2): the L-FIB each edge switch keeps for its locally
// attached hosts, the Bloom-filter G-FIB summarizing the L-FIBs of the
// group peers, and the C-LIB giving the controller global visibility.
package fib

import (
	"cmp"
	"slices"
	"time"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// LFIBEntry is a host-location binding in an L-FIB: the host's
// addresses and the local port it is attached to.
type LFIBEntry struct {
	MAC  model.MAC
	IP   model.IP
	VLAN model.VLAN
	Port uint16
}

// LFIB is the Local Forwarding Information Base of one edge switch: a
// conventional learning MAC table over the locally attached hosts
// (virtual machines). It keeps a change journal so advertisement can
// ship increments — just the bindings that moved since the last drain
// — instead of a full snapshot on every change.
//
// The advertised version carries an incarnation epoch in its high bits
// (see VersionEpochShift): a reboot wipes the table and the change
// counter but bumps the epoch, so every post-reboot version is
// strictly greater than every pre-reboot one. Receivers that order or
// gate on versions (the C-LIB's snapshot stamp, the edge's
// stale-full-filter guard, the designated switch's filter-version and
// reported-version gates) therefore keep working across reboots, and the rebooted switch's
// advertisements stay delta-encodable instead of being refused until
// a counter restarted at zero catches up — which in practice meant
// full resyncs or, worse, stale filters pinned at the old version.
type LFIB struct {
	// entries holds the bindings in no particular order, byMAC their
	// indexes: a binding costs a slot, not an object.
	byMAC   map[model.MAC]int32
	entries []LFIBEntry
	epoch   uint64
	version uint64
	// dirty holds MACs learned or rebound since the last DrainChanges;
	// removed records a removal, which increments cannot express and
	// which therefore forces the next drain to a full snapshot.
	dirty   map[model.MAC]struct{}
	removed bool
}

// VersionEpochShift is the bit position of the incarnation epoch
// inside the 64-bit L-FIB version: the low 48 bits count structural
// changes within one incarnation (enough for ~10^14 changes), the
// high 16 bits carry the epoch. The composite travels as a plain u64,
// so no wire format changes — lexicographic (epoch, counter) order is
// exactly integer order on the composite.
const VersionEpochShift = 48

// NewLFIB returns an empty L-FIB at epoch 0.
func NewLFIB() *LFIB {
	return &LFIB{
		byMAC: make(map[model.MAC]int32),
		dirty: make(map[model.MAC]struct{}),
	}
}

// Learn inserts or refreshes a binding. It returns true when the L-FIB
// changed structurally (new host or moved port), which is what triggers
// asynchronous state dissemination. The trailing time is ignored:
// bindings do not age.
func (l *LFIB) Learn(mac model.MAC, ip model.IP, vlan model.VLAN, port uint16, _ time.Duration) bool {
	if i, ok := l.byMAC[mac]; ok {
		e := &l.entries[i]
		changed := e.Port != port || e.IP != ip || e.VLAN != vlan
		e.Port = port
		e.IP = ip
		e.VLAN = vlan
		if changed {
			l.version++
			l.dirty[mac] = struct{}{}
		}
		return changed
	}
	l.byMAC[mac] = int32(len(l.entries))
	l.entries = append(l.entries, LFIBEntry{MAC: mac, IP: ip, VLAN: vlan, Port: port})
	l.version++
	l.dirty[mac] = struct{}{}
	return true
}

// Lookup returns the entry for a MAC, or nil. The entry is the table's
// own, valid until the next Learn, Remove or Restart.
func (l *LFIB) Lookup(mac model.MAC) *LFIBEntry {
	if i, ok := l.byMAC[mac]; ok {
		return &l.entries[i]
	}
	return nil
}

// LookupIP scans for the entry owning an IP (used to answer ARP
// requests). Linear in table size, which is bounded by the hosts per
// switch. The entry is valid as Lookup's is.
func (l *LFIB) LookupIP(ip model.IP) *LFIBEntry {
	for i := range l.entries {
		if l.entries[i].IP == ip {
			return &l.entries[i]
		}
	}
	return nil
}

// Remove deletes a binding (VM removal or migration away). It reports
// whether an entry existed. The last entry moves into the freed slot.
func (l *LFIB) Remove(mac model.MAC) bool {
	i, ok := l.byMAC[mac]
	if !ok {
		return false
	}
	last := len(l.entries) - 1
	if int(i) != last {
		l.entries[i] = l.entries[last]
		l.byMAC[l.entries[i].MAC] = i
	}
	l.entries = l.entries[:last]
	delete(l.byMAC, mac)
	delete(l.dirty, mac)
	l.version++
	l.removed = true
	return true
}

// Version is the advertised state version: the incarnation epoch in
// the high bits over the per-incarnation change counter. Dissemination
// tags updates with it; it is strictly monotonic across reboots.
func (l *LFIB) Version() uint64 { return l.epoch<<VersionEpochShift | l.version }

// Restart simulates a reboot: every binding and the change journal are
// lost (volatile state), the change counter resets, and the
// incarnation epoch — the one durable datum, persisted by real
// switches in stable storage — increments. The resulting Version
// dominates every version the previous incarnation ever advertised.
func (l *LFIB) Restart() {
	clear(l.byMAC)
	l.entries = l.entries[:0]
	clear(l.dirty)
	l.removed = false
	l.version = 0
	l.epoch++
}

// WireEntries converts the table to the wire representation for an
// LFIBUpdate message, sorted by MAC.
func (l *LFIB) WireEntries() []openflow.LFIBEntry {
	out := make([]openflow.LFIBEntry, 0, len(l.entries))
	for i := range l.entries {
		e := &l.entries[i]
		out = append(out, openflow.LFIBEntry{MAC: e.MAC, IP: e.IP, VLAN: e.VLAN})
	}
	slices.SortFunc(out, wireByMAC)
	return out
}

// wireByMAC orders wire entries by MAC. MACs are unique within a table,
// so any sort gives the one order.
func wireByMAC(a, b openflow.LFIBEntry) int { return cmp.Compare(a.MAC.Uint64(), b.MAC.Uint64()) }

// DrainChanges empties the change journal and returns the wire form of
// what advertisement must ship: the changed bindings as an increment
// (full=false), or the whole table (full=true) when a removal occurred
// since the last drain — removals cannot travel as increments — or
// when the increment would not be smaller than the snapshot anyway.
func (l *LFIB) DrainChanges() (entries []openflow.LFIBEntry, full bool) {
	full = l.removed || len(l.dirty) >= len(l.byMAC)
	l.removed = false
	if full {
		clear(l.dirty)
		return l.WireEntries(), true
	}
	entries = make([]openflow.LFIBEntry, 0, len(l.dirty))
	for mac := range l.dirty {
		if i, ok := l.byMAC[mac]; ok {
			e := &l.entries[i]
			entries = append(entries, openflow.LFIBEntry{MAC: e.MAC, IP: e.IP, VLAN: e.VLAN})
		}
	}
	clear(l.dirty)
	slices.SortFunc(entries, wireByMAC)
	return entries, false
}

// MACKey is the Bloom-filter key of a MAC address.
func MACKey(mac model.MAC) uint64 { return mac.Uint64() }

// IPKey is the Bloom-filter key of an IP address; the tag bit keeps the
// MAC and IP key spaces disjoint (MACs occupy 48 bits).
func IPKey(ip model.IP) uint64 { return 1<<50 | uint64(ip) }

// FilterFromWireEntries builds the Bloom filter of a wire L-FIB
// snapshot using the given geometry (m bits, k hashes), over the MAC
// and IP keys of every entry. Including IP keys lets the G-FIB
// recognize ARP targets (§III-D3 level ii).
func FilterFromWireEntries(entries []openflow.LFIBEntry, m uint64, k uint32) *bloom.Filter {
	f := bloom.New(m, k)
	for _, e := range entries {
		f.AddUint64(MACKey(e.MAC))
		f.AddUint64(IPKey(e.IP))
	}
	return f
}

// FilterBytesFromWireEntries is FilterFromWireEntries pre-serialized,
// for callers that only need the wire encoding.
func FilterBytesFromWireEntries(entries []openflow.LFIBEntry, m uint64, k uint32) ([]byte, error) {
	return FilterFromWireEntries(entries, m, k).MarshalBinary()
}

// DefaultFilterBits is the G-FIB Bloom filter size used by the paper's
// storage analysis (§V-D): 16 entries of 128 bytes = 2048 bytes = 16384
// bits per peer switch.
const DefaultFilterBits = 16 * 128 * 8

// DefaultFilterHashes is the hash count paired with DefaultFilterBits;
// at ~24 hosts per switch it keeps the false-positive rate below 0.1%.
const DefaultFilterHashes = 7
