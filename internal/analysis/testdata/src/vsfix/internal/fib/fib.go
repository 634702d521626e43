// Package fib is a versionstamp fixture mirroring the production
// L-FIB/C-LIB version ownership, including the "increments must never
// stamp versions" guard in ApplyLFIB.
package fib

import "vsfix/internal/bloom"

type LFIB struct {
	version uint64
	epoch   uint64
}

func (l *LFIB) Learn() { l.version++ }

func (l *LFIB) Remove() { l.version++ }

func (l *LFIB) Restart() {
	l.version = 0
	l.epoch++
}

// Hack writes the version from an unapproved method.
func (l *LFIB) Hack() {
	l.version = 99 // want `outside its approved owner functions`
}

// Demote writes the epoch outside Restart.
func (l *LFIB) Demote() {
	l.epoch-- // want `outside its approved owner functions`
}

type LFIBUpdate struct {
	Full    bool
	Version uint64
}

type CLIB struct {
	swVersions map[uint64]uint64
}

func NewCLIB() *CLIB {
	return &CLIB{swVersions: make(map[uint64]uint64)}
}

func (c *CLIB) ApplyLFIB(sw uint64, u *LFIBUpdate) {
	if u.Full {
		if u.Version > c.swVersions[sw] {
			c.swVersions[sw] = u.Version
		}
	}
	// The unguarded write: an increment stamping a version.
	c.swVersions[sw] = u.Version // want `must be dominated by a \.Full check`
}

func (c *CLIB) RemoveSwitch(sw uint64) {
	delete(c.swVersions, sw)
}

// Rogue writes the recorded versions from an unapproved method.
func (c *CLIB) Rogue(sw, v uint64) {
	c.swVersions[sw] = v // want `outside its approved owner functions`
}

// RogueDelete deletes from an unapproved method.
func (c *CLIB) RogueDelete(sw uint64) {
	delete(c.swVersions, sw) // want `outside its approved owner functions`
}

type GFIB struct {
	filters map[uint64]*bloom.Filter
}

// SetFilterBytes is an approved SetVersion caller.
func (g *GFIB) SetFilterBytes(peer uint64, f *bloom.Filter, version uint64) {
	f.SetVersion(version)
	g.filters[peer] = f
}

// ApplyDelta is an approved SetVersion caller.
func (g *GFIB) ApplyDelta(peer uint64, target uint64) {
	if f := g.filters[peer]; f != nil {
		f.SetVersion(target)
	}
}

// Restamp calls the setter from an unapproved function.
func Restamp(f *bloom.Filter, v uint64) {
	f.SetVersion(v) // want `outside its approved owner functions`
}
