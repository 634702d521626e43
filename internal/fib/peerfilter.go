package fib

import (
	"lazyctrl/internal/bloom"
	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// PeerFilter is one origin switch's G-FIB filter as a sender holds it:
// the current build, the previous build it diffs against, and the
// skip/delta/full rule of docs/protocol.md's G-FIB distribution rules.
// Both senders keep one per origin — the designated switch per member
// record, the controller per switch record — and differ only in what
// they assume a receiver holds. The zero value holds no build.
type PeerFilter struct {
	cur, prev *bloom.Filter
	entries   int
	// data is cur's encoding and words the prev → cur diff, each
	// computed on first use and dropped by the next Rebuild.
	data    []byte
	words   []bloom.WordDelta
	diffed  bool
	deltaOK bool
}

// Rebuild builds the filter of an L-FIB snapshot at the default
// geometry, stamped with the snapshot's version. The build it replaces
// becomes the diff base.
func (p *PeerFilter) Rebuild(entries []openflow.LFIBEntry, version uint64) {
	f := FilterFromWireEntries(entries, DefaultFilterBits, DefaultFilterHashes)
	f.SetVersion(version)
	*p = PeerFilter{cur: f, prev: p.cur, entries: len(entries)}
}

// Reset drops both builds.
func (p *PeerFilter) Reset() { *p = PeerFilter{} }

// Version returns the current build's version, and whether there is a
// build.
func (p *PeerFilter) Version() (uint64, bool) {
	if p.cur == nil {
		return 0, false
	}
	return p.cur.Version(), true
}

// Entries returns the number of L-FIB entries the current build covers.
func (p *PeerFilter) Entries() int { return p.entries }

// Full returns the current build as a full GFIBUpdate item for origin.
// It must not be called without a build (see Version).
func (p *PeerFilter) Full(origin model.SwitchID) openflow.GFIBFilter {
	if p.data == nil {
		p.data, _ = p.cur.MarshalBinary() // MarshalBinary has no failure path
	}
	return openflow.GFIBFilter{Switch: origin, Filter: p.data, Version: p.cur.Version()}
}

// Delta returns the current build as a delta item for origin against a
// receiver holding version held. It reports false — send Full — unless
// held is the previous build's version and the delta item is smaller
// than the full item. A rebuild that left the bits unchanged is a
// zero-word delta.
func (p *PeerFilter) Delta(origin model.SwitchID, held uint64) (openflow.GFIBFilterDelta, bool) {
	if p.prev == nil || p.prev.Version() != held {
		return openflow.GFIBFilterDelta{}, false
	}
	if !p.diffed {
		words, err := p.cur.DiffWords(p.prev)
		p.words, p.diffed = words, true
		p.deltaOK = err == nil && openflow.DeltaWireCost(words) < openflow.FullWireCost(p.cur)
	}
	if !p.deltaOK {
		return openflow.GFIBFilterDelta{}, false
	}
	return openflow.GFIBFilterDelta{Switch: origin, BaseVersion: held, TargetVersion: p.cur.Version(), Words: p.words}, true
}
