package fib

import (
	"errors"
	"fmt"
	"slices"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/model"
)

// GFIB is the Group Forwarding Information Base: one Bloom filter per
// peer switch in the local control group, each summarizing that peer's
// L-FIB. Querying an address returns the candidate peers, which may
// include false positives but never misses the true location (§III-D2).
//
// Each installed filter carries the origin's state version (its L-FIB
// version at build time). Senders use it to ship word-level deltas
// instead of whole filters; ApplyDelta rejects a delta whose base
// version this G-FIB does not hold, which is the receiver's cue to
// NACK and request a full resync.
//
// The table is dense and ascending by peer: peers[i]'s filter is
// filters[i], held by value so a lookup's scan touches one header and
// then the bit array, with no pointer hop in between. Ascending order
// is a property of the structure — lookups and walks read it off, and
// only an install or a removal of a peer pays for it (a binary search
// and a shift of at most group size − 1 entries).
type GFIB struct {
	peers   []model.SwitchID
	filters []bloom.Filter
	version uint64
}

// ErrDeltaBase reports a filter delta whose base version the G-FIB
// does not hold (missed update, cleared filter, or no filter at all).
var ErrDeltaBase = errors.New("fib: G-FIB delta base version not held")

// NewGFIB returns an empty G-FIB.
func NewGFIB() *GFIB { return &GFIB{} }

// filter returns the installed filter of a peer, nil if none. The
// pointer is into the table: valid until the next install or removal.
func (g *GFIB) filter(peer model.SwitchID) *bloom.Filter {
	if i, ok := slices.BinarySearch(g.peers, peer); ok {
		return &g.filters[i]
	}
	return nil
}

// SetFilter installs or replaces the filter for a peer switch. The
// G-FIB takes the filter over (its bit array is not copied).
func (g *GFIB) SetFilter(peer model.SwitchID, f *bloom.Filter) {
	i, ok := slices.BinarySearch(g.peers, peer)
	if ok {
		g.filters[i] = *f
	} else {
		g.peers = slices.Insert(g.peers, i, peer)
		g.filters = slices.Insert(g.filters, i, *f)
	}
	g.version++
}

// SetFilterBytes decodes and installs a serialized filter at the given
// origin state version, as received in a GFIBUpdate message. An
// existing filter for the peer is decoded into in place (same geometry
// ⇒ no allocation); decode errors leave the previous filter untouched.
func (g *GFIB) SetFilterBytes(peer model.SwitchID, data []byte, version uint64) error {
	if f := g.filter(peer); f != nil {
		if err := f.UnmarshalBinary(data); err != nil {
			return fmt.Errorf("fib: G-FIB filter for %v: %w", peer, err)
		}
		f.SetVersion(version)
		g.version++
		return nil
	}
	var f bloom.Filter
	if err := f.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("fib: G-FIB filter for %v: %w", peer, err)
	}
	f.SetVersion(version)
	g.SetFilter(peer, &f)
	return nil
}

// PeerVersion returns the state version of the installed filter for a
// peer, if any.
func (g *GFIB) PeerVersion(peer model.SwitchID) (uint64, bool) {
	f := g.filter(peer)
	if f == nil {
		return 0, false
	}
	return f.Version(), true
}

// ApplyDelta patches the peer's filter from base to target version by
// overwriting the changed words. A delta whose target the filter has
// already reached (or passed — filters at version v are byte-identical
// no matter which sender built them, so "newer" strictly dominates) is
// a no-op: with two senders on the channel (designated dissemination
// and controller preloads) the slower one's deltas arrive late and
// must not regress the filter or provoke a NACK. It fails with
// ErrDeltaBase when the held filter is behind the target but not
// exactly at the delta's base version (or absent) — the receiver must
// then NACK so the sender falls back to a full filter. Range errors
// from the patch itself surface unchanged and leave the filter
// untouched.
func (g *GFIB) ApplyDelta(peer model.SwitchID, base, target uint64, words []bloom.WordDelta) error {
	f := g.filter(peer)
	if f == nil {
		return ErrDeltaBase
	}
	if f.Version() >= target {
		return nil
	}
	if f.Version() != base {
		return ErrDeltaBase
	}
	if err := f.ApplyWords(words); err != nil {
		return fmt.Errorf("fib: G-FIB delta for %v: %w", peer, err)
	}
	f.SetVersion(target)
	g.version++
	return nil
}

// SnapshotBytes returns the serialized form of every installed filter,
// keyed by peer. The delta/full differential tests compare these for
// byte identity.
func (g *GFIB) SnapshotBytes() map[model.SwitchID][]byte {
	out := make(map[model.SwitchID][]byte, len(g.peers))
	for i, peer := range g.peers {
		data, err := g.filters[i].MarshalBinary()
		if err != nil {
			continue // cannot happen: MarshalBinary has no failure path
		}
		out[peer] = data
	}
	return out
}

// RemoveFilter drops the filter of a peer (peer left the group) and
// reports whether one was held.
func (g *GFIB) RemoveFilter(peer model.SwitchID) bool {
	i, ok := slices.BinarySearch(g.peers, peer)
	if !ok {
		return false
	}
	g.peers = slices.Delete(g.peers, i, i+1)
	g.filters = slices.Delete(g.filters, i, i+1)
	g.version++
	return true
}

// Clear drops all filters (regrouping).
func (g *GFIB) Clear() {
	if len(g.peers) == 0 {
		return
	}
	clear(g.filters) // release the bit arrays, keep the table
	g.peers, g.filters = g.peers[:0], g.filters[:0]
	g.version++
}

// Query returns the peers whose filters report (possibly falsely) that
// they host the MAC, in ascending switch order.
func (g *GFIB) Query(mac model.MAC) []model.SwitchID {
	return g.appendKey(nil, MACKey(mac))
}

// AppendQuery is Query into a caller-owned slice: the candidates are
// appended to dst (ascending) and the extended slice returned, so a
// caller that reuses its scratch looks up without allocating.
func (g *GFIB) AppendQuery(dst []model.SwitchID, mac model.MAC) []model.SwitchID {
	return g.appendKey(dst, MACKey(mac))
}

// QueryIP returns the peers that possibly host the IP (ARP targets).
func (g *GFIB) QueryIP(ip model.IP) []model.SwitchID {
	return g.appendKey(nil, IPKey(ip))
}

// appendKey hashes the key once and tests it against every filter in
// table order, which is ascending peer order.
func (g *GFIB) appendKey(dst []model.SwitchID, key uint64) []model.SwitchID {
	h := bloom.HashUint64(key)
	for i := range g.filters {
		if g.filters[i].TestKey(h) {
			dst = append(dst, g.peers[i])
		}
	}
	return dst
}

// Peers returns the switches with installed filters, ascending.
func (g *GFIB) Peers() []model.SwitchID {
	return slices.Clone(g.peers)
}

// At returns the i-th peer in ascending order and the state version of
// its filter, 0 ≤ i < Len — the walk that copies nothing.
func (g *GFIB) At(i int) (peer model.SwitchID, version uint64) {
	return g.peers[i], g.filters[i].Version()
}

// Len returns the number of peer filters.
func (g *GFIB) Len() int { return len(g.peers) }

// SizeBytes returns the total storage of all filters — the quantity the
// paper's storage-overhead analysis bounds (§V-D).
func (g *GFIB) SizeBytes() int {
	total := 0
	for i := range g.filters {
		total += g.filters[i].SizeBytes()
	}
	return total
}

// Version counts structural changes.
func (g *GFIB) Version() uint64 { return g.version }
