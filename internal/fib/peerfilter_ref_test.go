package fib

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// The references below are the two G-FIB senders as they were before
// PeerFilter: the designated switch's build → diff → cost → encode
// sequence (edge disseminateGFIB / handleGFIBNack), and the
// controller's preload filter pair with its per-round diff memo
// (controller refreshPeerFilter / buildPreload / handleGFIBNack). Each
// is copied with its decision lines unchanged and kept as the
// executable specification the PeerFilter-based senders are checked
// against. The snapshot generator reaches diffs on both sides of the
// delta/full cutoff (206 words a delta, 207 full). Whether the cost
// comparison is strict cannot be observed: at the default geometry a
// full item is 2,084 bytes and an n-word delta item 22 + 10n bytes for
// n ≥ 128, never equal.

// refEdge is the designated switch's sender state for its members.
type refEdge struct {
	fullPush bool
	gfibPrev map[model.SwitchID]*bloom.Filter
	counts   edgeCounts
}

type edgeCounts struct{ deltasSent, fullsSent, resyncs uint64 }

// disseminate is one member's non-beacon dissemination: the member's
// snapshot at version v is rebuilt and shipped as a delta or in full.
func (r *refEdge) disseminate(member model.SwitchID, snapshot []openflow.LFIBEntry, v uint64) any {
	f := FilterFromWireEntries(snapshot, DefaultFilterBits, DefaultFilterHashes)
	f.SetVersion(v)
	prev := r.gfibPrev[member]
	r.gfibPrev[member] = f
	if prev != nil && !r.fullPush {
		if words, err := f.DiffWords(prev); err == nil && openflow.DeltaWireCost(words) < openflow.FullWireCost(f) {
			r.counts.deltasSent++
			return openflow.GFIBFilterDelta{
				Switch:        member,
				BaseVersion:   prev.Version(),
				TargetVersion: v,
				Words:         words,
			}
		}
	}
	data, err := f.MarshalBinary()
	if err != nil {
		return nil // cannot happen with valid geometry
	}
	r.counts.fullsSent++
	return openflow.GFIBFilter{Switch: member, Filter: data, Version: v}
}

// nack answers a resync request for peers with full filters.
func (r *refEdge) nack(peers []model.SwitchID) []openflow.GFIBFilter {
	var out []openflow.GFIBFilter
	for _, peer := range peers {
		f := r.gfibPrev[peer]
		if f == nil {
			continue // nothing disseminated for this peer yet
		}
		data, err := f.MarshalBinary()
		if err != nil {
			continue
		}
		out = append(out, openflow.GFIBFilter{Switch: peer, Filter: data, Version: f.Version()})
	}
	r.counts.resyncs += uint64(len(out))
	return out
}

// peerEdge is refEdge's contract on PeerFilter, as the designated
// switch runs it.
type peerEdge struct {
	fullPush bool
	filters  map[model.SwitchID]*PeerFilter
	counts   edgeCounts
}

func (e *peerEdge) filter(member model.SwitchID) *PeerFilter {
	if e.filters[member] == nil {
		e.filters[member] = &PeerFilter{}
	}
	return e.filters[member]
}

func (e *peerEdge) disseminate(member model.SwitchID, snapshot []openflow.LFIBEntry, v uint64) any {
	pf := e.filter(member)
	held, built := pf.Version()
	pf.Rebuild(snapshot, v)
	if built && !e.fullPush {
		if d, ok := pf.Delta(member, held); ok {
			e.counts.deltasSent++
			return d
		}
	}
	e.counts.fullsSent++
	return pf.Full(member)
}

func (e *peerEdge) nack(peers []model.SwitchID) []openflow.GFIBFilter {
	var out []openflow.GFIBFilter
	for _, peer := range peers {
		if _, built := e.filter(peer).Version(); !built {
			continue
		}
		out = append(out, e.filter(peer).Full(peer))
	}
	e.counts.resyncs += uint64(len(out))
	return out
}

// refPreloadFilter is the controller's old cached preload filter.
type refPreloadFilter struct {
	f       *bloom.Filter
	data    []byte
	entries int
}

// refCtrl is the controller's preload state: the filter pair per switch
// and the versions pushed per destination.
type refCtrl struct {
	pfCur, pfPrev map[model.SwitchID]*refPreloadFilter
	pushed        map[model.SwitchID]map[model.SwitchID]uint64
	counts        ctrlCounts
}

type ctrlCounts struct{ fulls, deltas, rulesPreload, nacks uint64 }

func markPushed(pushed map[model.SwitchID]map[model.SwitchID]uint64, dest, peer model.SwitchID, v uint64) {
	if pushed[dest] == nil {
		pushed[dest] = make(map[model.SwitchID]uint64)
	}
	pushed[dest][peer] = v
}

// refresh is refreshPeerFilter over the C-LIB's entries and version
// for sw.
func (c *refCtrl) refresh(sw model.SwitchID, entries []openflow.LFIBEntry, v uint64) {
	if cur := c.pfCur[sw]; cur != nil && cur.f.Version() == v {
		return
	}
	if len(entries) == 0 {
		c.pfCur[sw], c.pfPrev[sw] = nil, nil
		return
	}
	f := FilterFromWireEntries(entries, DefaultFilterBits, DefaultFilterHashes)
	f.SetVersion(v)
	data, err := f.MarshalBinary()
	if err != nil {
		return // cannot happen: MarshalBinary has no failure path
	}
	if c.pfCur[sw] != nil {
		c.pfPrev[sw] = c.pfCur[sw]
	}
	c.pfCur[sw] = &refPreloadFilter{f: f, data: data, entries: len(entries)}
}

// preload is buildPreload's per-peer decision for one destination,
// with the round's diff memo.
func (c *refCtrl) preload(dest model.SwitchID, members []model.SwitchID, diffs *map[model.SwitchID][]bloom.WordDelta) ([]openflow.GFIBFilter, []openflow.GFIBFilterDelta) {
	var update []openflow.GFIBFilter
	var delta []openflow.GFIBFilterDelta
	acked := c.pushed[dest]
	for _, peer := range members {
		if peer == dest {
			continue
		}
		cur, prev := c.pfCur[peer], c.pfPrev[peer]
		if cur == nil {
			continue
		}
		curV := cur.f.Version()
		ackedV, has := acked[peer]
		if has && ackedV == curV {
			continue // destination is current for this peer
		}
		if has && prev != nil && prev.f.Version() == ackedV {
			if *diffs == nil {
				*diffs = make(map[model.SwitchID][]bloom.WordDelta)
			}
			words, ok := (*diffs)[peer]
			var err error
			if !ok {
				if words, err = cur.f.DiffWords(prev.f); err == nil {
					(*diffs)[peer] = words
				}
			}
			if err == nil && openflow.DeltaWireCost(words) < openflow.FullWireCost(cur.f) {
				delta = append(delta, openflow.GFIBFilterDelta{
					Switch:        peer,
					BaseVersion:   ackedV,
					TargetVersion: curV,
					Words:         words,
				})
				c.counts.deltas++
				markPushed(c.pushed, dest, peer, curV)
				continue
			}
		}
		update = append(update, openflow.GFIBFilter{Switch: peer, Filter: cur.data, Version: curV})
		c.counts.fulls++
		c.counts.rulesPreload += uint64(cur.entries)
		markPushed(c.pushed, dest, peer, curV)
	}
	return update, delta
}

func (c *refCtrl) nack(dest model.SwitchID, peers []model.SwitchID) []openflow.GFIBFilter {
	var out []openflow.GFIBFilter
	for _, peer := range peers {
		cur := c.pfCur[peer]
		if cur == nil {
			continue
		}
		out = append(out, openflow.GFIBFilter{Switch: peer, Filter: cur.data, Version: cur.f.Version()})
		markPushed(c.pushed, dest, peer, cur.f.Version())
	}
	c.counts.nacks += uint64(len(out))
	return out
}

// diag is the DiagSwitch branch: the dead switch's filter goes, and
// so does every destination's pushed version for it.
func (c *refCtrl) diag(sw model.SwitchID) {
	c.pfCur[sw], c.pfPrev[sw] = nil, nil
	for _, p := range c.pushed {
		delete(p, sw)
	}
}

// peerCtrl is refCtrl's contract on PeerFilter, as the controller runs
// it.
type peerCtrl struct {
	filters map[model.SwitchID]*PeerFilter
	pushed  map[model.SwitchID]map[model.SwitchID]uint64
	counts  ctrlCounts
}

func (c *peerCtrl) filter(sw model.SwitchID) *PeerFilter {
	if c.filters[sw] == nil {
		c.filters[sw] = &PeerFilter{}
	}
	return c.filters[sw]
}

func (c *peerCtrl) refresh(sw model.SwitchID, entries []openflow.LFIBEntry, v uint64) {
	pf := c.filter(sw)
	if built, ok := pf.Version(); ok && built == v {
		return
	}
	if len(entries) == 0 {
		pf.Reset()
		return
	}
	pf.Rebuild(entries, v)
}

func (c *peerCtrl) preload(dest model.SwitchID, members []model.SwitchID) ([]openflow.GFIBFilter, []openflow.GFIBFilterDelta) {
	var update []openflow.GFIBFilter
	var delta []openflow.GFIBFilterDelta
	acked := c.pushed[dest]
	for _, peer := range members {
		if peer == dest {
			continue
		}
		pf := c.filter(peer)
		curV, built := pf.Version()
		if !built {
			continue
		}
		ackedV, has := acked[peer]
		if has && ackedV == curV {
			continue
		}
		if has {
			if d, ok := pf.Delta(peer, ackedV); ok {
				delta = append(delta, d)
				c.counts.deltas++
				markPushed(c.pushed, dest, peer, curV)
				continue
			}
		}
		update = append(update, pf.Full(peer))
		c.counts.fulls++
		c.counts.rulesPreload += uint64(pf.Entries())
		markPushed(c.pushed, dest, peer, curV)
	}
	return update, delta
}

func (c *peerCtrl) nack(dest model.SwitchID, peers []model.SwitchID) []openflow.GFIBFilter {
	var out []openflow.GFIBFilter
	for _, peer := range peers {
		v, built := c.filter(peer).Version()
		if !built {
			continue
		}
		out = append(out, c.filter(peer).Full(peer))
		markPushed(c.pushed, dest, peer, v)
	}
	c.counts.nacks += uint64(len(out))
	return out
}

func (c *peerCtrl) diag(sw model.SwitchID) {
	c.filter(sw).Reset()
	for _, p := range c.pushed {
		delete(p, sw)
	}
}

// snapshotGen produces the L-FIB snapshots of one origin switch: small
// moves, version-only moves, empty tables, wholesale replacements, and
// growth to a diff of a chosen word count around the delta/full cutoff.
type snapshotGen struct {
	rng     *rand.Rand
	entries []openflow.LFIBEntry
	version uint64
}

func wireEntry(h model.HostID) openflow.LFIBEntry {
	return openflow.LFIBEntry{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1}
}

// step moves the snapshot and reports the kind of move.
func (g *snapshotGen) step() string {
	rng := g.rng
	switch op := rng.IntN(100); {
	case op < 30:
		g.version++
		for n := 1 + rng.IntN(3); n > 0; n-- {
			g.entries = append(g.entries, wireEntry(model.HostID(rng.IntN(1<<20))))
		}
		return "grow"
	case op < 45:
		g.version++
		if len(g.entries) > 0 {
			i := rng.IntN(len(g.entries))
			g.entries = slices.Delete(slices.Clone(g.entries), i, i+1)
		}
		return "shrink"
	case op < 60:
		g.version++ // a reboot re-attaching the same hosts
		return "version only"
	case op < 70:
		return "unchanged"
	case op < 76:
		g.version++
		g.entries = nil
		return "empty"
	case op < 84:
		g.version++
		g.entries = nil
		for n := 40 + rng.IntN(200); n > 0; n-- {
			g.entries = append(g.entries, wireEntry(model.HostID(rng.IntN(1<<20))))
		}
		return "replace"
	default:
		g.version++
		g.entries = growToDiff(rng, g.entries, 203+rng.IntN(6))
		return "near cutoff"
	}
}

// growToDiff adds hosts to entries, skipping any that would overshoot,
// until the filter differs from the one of entries in exactly want
// words (or the attempts run out).
func growToDiff(rng *rand.Rand, entries []openflow.LFIBEntry, want int) []openflow.LFIBEntry {
	base := FilterFromWireEntries(entries, DefaultFilterBits, DefaultFilterHashes)
	work, out := base.Clone(), slices.Clone(entries)
	for tries := 0; tries < 4000; tries++ {
		e := wireEntry(model.HostID(rng.IntN(1 << 20)))
		cand := work.Clone()
		cand.AddUint64(MACKey(e.MAC))
		cand.AddUint64(IPKey(e.IP))
		words, _ := cand.DiffWords(base)
		if len(words) > want {
			continue
		}
		work, out = cand, append(out, e)
		if len(words) == want {
			break
		}
	}
	return out
}

// itemClass names what a sender shipped, for the coverage census.
func itemClass(item any) string {
	switch it := item.(type) {
	case openflow.GFIBFilterDelta:
		if len(it.Words) == 0 {
			return "zero-word delta"
		}
		if len(it.Words) > 200 {
			return "delta near cutoff"
		}
		return "delta"
	case openflow.GFIBFilter:
		return "full"
	}
	return "nothing"
}

// TestPeerFilterMatchesEdgeReference runs the designated switch's
// dissemination and NACK answers through refEdge and PeerFilter on the
// same random programs and compares every item byte for byte and every
// counter, with and without GFIBFullPush.
func TestPeerFilterMatchesEdgeReference(t *testing.T) {
	const (
		programs = 1200
		steps    = 40
		members  = 3
	)
	seen := make(map[string]int)
	for prog := 0; prog < programs; prog++ {
		rng := rand.New(rand.NewPCG(uint64(prog), 30))
		fullPush := prog%4 == 3
		ref := &refEdge{fullPush: fullPush, gfibPrev: make(map[model.SwitchID]*bloom.Filter)}
		got := &peerEdge{fullPush: fullPush, filters: make(map[model.SwitchID]*PeerFilter)}
		gens := make([]*snapshotGen, members+1)
		for m := 1; m <= members; m++ {
			gens[m] = &snapshotGen{rng: rng, version: rng.Uint64N(1 << 50)}
		}
		for step := 0; step < steps; step++ {
			at := fmt.Sprintf("program %d step %d", prog, step)
			member := model.SwitchID(1 + rng.IntN(members))
			switch op := rng.IntN(100); {
			case op < 75: // a round yields the member: every yield rebuilds
				g := gens[member]
				move := g.step()
				want := ref.disseminate(member, g.entries, g.version)
				if item := got.disseminate(member, g.entries, g.version); !reflect.DeepEqual(item, want) {
					t.Fatalf("%s: %s: disseminated %+v, reference %+v", at, move, item, want)
				}
				class := itemClass(want)
				if fullPush {
					class += " (full push)"
				}
				seen[class]++
			case op < 92: // a member NACKs some peers
				var peers []model.SwitchID
				for m := model.SwitchID(1); m <= members; m++ {
					if rng.IntN(2) == 0 {
						peers = append(peers, m)
					}
				}
				want := ref.nack(peers)
				if items := got.nack(peers); !reflect.DeepEqual(items, want) {
					t.Fatalf("%s: NACK %v answered %d items, reference %d", at, peers, len(items), len(want))
				}
				seen[fmt.Sprintf("nack answered %d", min(len(want), 1))]++
			default: // the role is rebuilt: every member record starts empty
				clear(ref.gfibPrev)
				clear(got.filters)
			}
			if got.counts != ref.counts {
				t.Fatalf("%s: counts %+v, reference %+v", at, got.counts, ref.counts)
			}
			for m := model.SwitchID(1); m <= members; m++ {
				v, built := got.filter(m).Version()
				if f := ref.gfibPrev[m]; built != (f != nil) || (f != nil && v != f.Version()) {
					t.Fatalf("%s: member %d Version = (%d, %v), reference filter %v", at, m, v, built, f != nil)
				}
			}
		}
	}
	for _, class := range []string{
		"full", "delta", "zero-word delta", "delta near cutoff", "full (full push)",
		"nack answered 0", "nack answered 1",
	} {
		if seen[class] < 100 {
			t.Errorf("the generator reached %q only %d times — the comparison above proves little about it", class, seen[class])
		}
	}
}

// TestPeerFilterMatchesControllerReference runs the controller's push
// rounds, NACK answers and dead-switch resets through refCtrl and
// PeerFilter on the same random programs. Destinations hold nothing,
// the previous version, the current version or an unrelated one; every
// item is compared byte for byte, and so are the counters and the
// pushed versions.
func TestPeerFilterMatchesControllerReference(t *testing.T) {
	const (
		programs = 1200
		steps    = 40
		switches = 4
	)
	members := make([]model.SwitchID, 0, switches)
	for sw := model.SwitchID(1); sw <= switches; sw++ {
		members = append(members, sw)
	}
	seen := make(map[string]int)
	for prog := 0; prog < programs; prog++ {
		rng := rand.New(rand.NewPCG(uint64(prog), 31))
		ref := &refCtrl{
			pfCur:  make(map[model.SwitchID]*refPreloadFilter),
			pfPrev: make(map[model.SwitchID]*refPreloadFilter),
			pushed: make(map[model.SwitchID]map[model.SwitchID]uint64),
		}
		got := &peerCtrl{
			filters: make(map[model.SwitchID]*PeerFilter),
			pushed:  make(map[model.SwitchID]map[model.SwitchID]uint64),
		}
		clib := make([]*snapshotGen, switches+1)
		for _, sw := range members {
			clib[sw] = &snapshotGen{rng: rng, version: rng.Uint64N(1 << 50)}
		}
		for step := 0; step < steps; step++ {
			at := fmt.Sprintf("program %d step %d", prog, step)
			switch op := rng.IntN(100); {
			case op < 35: // the C-LIB moves for one switch
				clib[members[rng.IntN(switches)]].step()
			case op < 70: // a push round: refresh every member, then preload every destination
				for _, sw := range members {
					ref.refresh(sw, clib[sw].entries, clib[sw].version)
					got.refresh(sw, clib[sw].entries, clib[sw].version)
				}
				var diffs map[model.SwitchID][]bloom.WordDelta
				for _, dest := range members {
					held := maps.Clone(ref.pushed[dest])
					wantFull, wantDelta := ref.preload(dest, members, &diffs)
					full, delta := got.preload(dest, members)
					if !reflect.DeepEqual(full, wantFull) || !reflect.DeepEqual(delta, wantDelta) {
						t.Fatalf("%s: preload to %d = %d full / %d delta, reference %d / %d", at, dest,
							len(full), len(delta), len(wantFull), len(wantDelta))
					}
					for _, it := range wantFull {
						v, ok := held[it.Switch]
						prev := ref.pfPrev[it.Switch]
						switch {
						case !ok:
							seen["full: held nothing"]++
						case prev != nil && v == prev.f.Version():
							seen["full: held previous, delta too big"]++
						default:
							seen["full: held unrelated"]++
						}
					}
					for _, it := range wantDelta {
						seen[itemClass(it)]++
					}
				}
			case op < 80: // a destination NACKs some peers
				dest := members[rng.IntN(switches)]
				var peers []model.SwitchID
				for _, sw := range members {
					if sw != dest && rng.IntN(2) == 0 {
						peers = append(peers, sw)
					}
				}
				want := ref.nack(dest, peers)
				if items := got.nack(dest, peers); !reflect.DeepEqual(items, want) {
					t.Fatalf("%s: NACK from %d answered %d items, reference %d", at, dest, len(items), len(want))
				}
				seen[fmt.Sprintf("nack answered %d", min(len(want), 1))]++
			case op < 88: // what a destination holds is forgotten (push retry, reboot)
				dest := members[rng.IntN(switches)]
				ref.pushed[dest], got.pushed[dest] = nil, nil
			case op < 96: // a destination holds a version from elsewhere
				dest, peer := members[rng.IntN(switches)], members[rng.IntN(switches)]
				v := clib[peer].version - rng.Uint64N(4)
				markPushed(ref.pushed, dest, peer, v)
				markPushed(got.pushed, dest, peer, v)
			default: // DiagSwitch
				sw := members[rng.IntN(switches)]
				ref.diag(sw)
				got.diag(sw)
				seen["diag"]++
			}
			if got.counts != ref.counts {
				t.Fatalf("%s: counts %+v, reference %+v", at, got.counts, ref.counts)
			}
			if !reflect.DeepEqual(got.pushed, ref.pushed) {
				t.Fatalf("%s: pushed versions %v, reference %v", at, got.pushed, ref.pushed)
			}
			for _, sw := range members {
				v, built := got.filter(sw).Version()
				if cur := ref.pfCur[sw]; built != (cur != nil) || (cur != nil && v != cur.f.Version()) {
					t.Fatalf("%s: switch %d Version = (%d, %v), reference filter %v", at, sw, v, built, cur != nil)
				}
			}
		}
	}
	for _, class := range []string{
		"full: held nothing", "full: held previous, delta too big", "full: held unrelated",
		"delta", "zero-word delta", "delta near cutoff", "nack answered 0", "nack answered 1", "diag",
	} {
		if seen[class] < 100 {
			t.Errorf("the generator reached %q only %d times — the comparison above proves little about it", class, seen[class])
		}
	}
}
