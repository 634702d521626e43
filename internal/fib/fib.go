// Package fib implements the three forwarding tables of the LazyCtrl
// design (§III-D2): the L-FIB each edge switch keeps for its locally
// attached hosts, the Bloom-filter G-FIB summarizing the L-FIBs of the
// group peers, and the C-LIB giving the controller global visibility.
package fib

import (
	"sort"
	"time"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// LFIBEntry is a host-location binding in an L-FIB: the host's
// addresses, the local port it is attached to, and the time the binding
// was last refreshed (for aging).
type LFIBEntry struct {
	MAC      model.MAC
	IP       model.IP
	VLAN     model.VLAN
	Port     uint16
	LastSeen time.Duration // virtual time of last refresh
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
// stale-full-filter guard, the designated switch's sent-version gates)
// therefore keep working across reboots, and the rebooted switch's
// advertisements stay delta-encodable instead of being refused until
// a counter restarted at zero catches up — which in practice meant
// full resyncs or, worse, stale filters pinned at the old version.
type LFIB struct {
	byMAC   map[model.MAC]*LFIBEntry
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
		byMAC: make(map[model.MAC]*LFIBEntry),
		dirty: make(map[model.MAC]struct{}),
	}
}

// Learn inserts or refreshes a binding. It returns true when the L-FIB
// changed structurally (new host or moved port), which is what triggers
// asynchronous state dissemination.
func (l *LFIB) Learn(mac model.MAC, ip model.IP, vlan model.VLAN, port uint16, now time.Duration) bool {
	e, ok := l.byMAC[mac]
	if ok {
		changed := e.Port != port || e.IP != ip || e.VLAN != vlan
		e.Port = port
		e.IP = ip
		e.VLAN = vlan
		e.LastSeen = now
		if changed {
			l.version++
			l.dirty[mac] = struct{}{}
		}
		return changed
	}
	l.byMAC[mac] = &LFIBEntry{MAC: mac, IP: ip, VLAN: vlan, Port: port, LastSeen: now}
	l.version++
	l.dirty[mac] = struct{}{}
	return true
}

// Lookup returns the entry for a MAC, or nil.
func (l *LFIB) Lookup(mac model.MAC) *LFIBEntry {
	return l.byMAC[mac]
}

// LookupIP scans for the entry owning an IP (used to answer ARP
// requests). Linear in table size, which is bounded by the hosts per
// switch.
func (l *LFIB) LookupIP(ip model.IP) *LFIBEntry {
	for _, e := range l.byMAC {
		if e.IP == ip {
			return e
		}
	}
	return nil
}

// Remove deletes a binding (VM removal or migration away). It reports
// whether an entry existed.
func (l *LFIB) Remove(mac model.MAC) bool {
	if _, ok := l.byMAC[mac]; !ok {
		return false
	}
	delete(l.byMAC, mac)
	delete(l.dirty, mac)
	l.version++
	l.removed = true
	return true
}

// Expire drops entries older than maxAge and returns how many were
// removed.
func (l *LFIB) Expire(now, maxAge time.Duration) int {
	removed := 0
	for mac, e := range l.byMAC {
		if now-e.LastSeen > maxAge {
			delete(l.byMAC, mac)
			delete(l.dirty, mac)
			removed++
		}
	}
	if removed > 0 {
		l.version++
		l.removed = true
	}
	return removed
}

// Len returns the number of bindings.
func (l *LFIB) Len() int { return len(l.byMAC) }

// Version is the advertised state version: the incarnation epoch in
// the high bits over the per-incarnation change counter. Dissemination
// tags updates with it; it is strictly monotonic across reboots.
func (l *LFIB) Version() uint64 { return l.epoch<<VersionEpochShift | l.version }

// Epoch returns the incarnation epoch.
func (l *LFIB) Epoch() uint64 { return l.epoch }

// Restart simulates a reboot: every binding and the change journal are
// lost (volatile state), the change counter resets, and the
// incarnation epoch — the one durable datum, persisted by real
// switches in stable storage — increments. The resulting Version
// dominates every version the previous incarnation ever advertised.
func (l *LFIB) Restart() {
	l.byMAC = make(map[model.MAC]*LFIBEntry)
	l.dirty = make(map[model.MAC]struct{})
	l.removed = false
	l.version = 0
	l.epoch++
}

// Entries returns all bindings sorted by MAC (deterministic order for
// dissemination and tests).
func (l *LFIB) Entries() []LFIBEntry {
	out := make([]LFIBEntry, 0, len(l.byMAC))
	for _, e := range l.byMAC {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MAC.Uint64() < out[j].MAC.Uint64() })
	return out
}

// WireEntries converts the table to the wire representation for an
// LFIBUpdate message.
func (l *LFIB) WireEntries() []openflow.LFIBEntry {
	entries := l.Entries()
	out := make([]openflow.LFIBEntry, 0, len(entries))
	for _, e := range entries {
		out = append(out, openflow.LFIBEntry{MAC: e.MAC, IP: e.IP, VLAN: e.VLAN})
	}
	return out
}

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
		if e := l.byMAC[mac]; e != nil {
			entries = append(entries, openflow.LFIBEntry{MAC: e.MAC, IP: e.IP, VLAN: e.VLAN})
		}
	}
	clear(l.dirty)
	sort.Slice(entries, func(i, j int) bool { return entries[i].MAC.Uint64() < entries[j].MAC.Uint64() })
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
