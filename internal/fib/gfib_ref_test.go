package fib

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/model"
)

// refGFIB is the G-FIB as it was before the dense table: a map of
// filter pointers, one TestUint64 (one hash) per peer per lookup, and
// sort.Slice wherever ascending order is promised. It is kept as the
// executable specification GFIB is checked against.
type refGFIB struct {
	filters map[model.SwitchID]*bloom.Filter
	version uint64
}

func newRefGFIB() *refGFIB {
	return &refGFIB{filters: make(map[model.SwitchID]*bloom.Filter)}
}

func (g *refGFIB) SetFilter(peer model.SwitchID, f *bloom.Filter) {
	g.filters[peer] = f
	g.version++
}

func (g *refGFIB) SetFilterBytes(peer model.SwitchID, data []byte, version uint64) error {
	if f := g.filters[peer]; f != nil {
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

func (g *refGFIB) PeerVersion(peer model.SwitchID) (uint64, bool) {
	f, ok := g.filters[peer]
	if !ok {
		return 0, false
	}
	return f.Version(), true
}

func (g *refGFIB) ApplyDelta(peer model.SwitchID, base, target uint64, words []bloom.WordDelta) error {
	f, ok := g.filters[peer]
	if !ok {
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

func (g *refGFIB) SnapshotBytes() map[model.SwitchID][]byte {
	out := make(map[model.SwitchID][]byte, len(g.filters))
	for peer, f := range g.filters {
		out[peer], _ = f.MarshalBinary()
	}
	return out
}

func (g *refGFIB) RemoveFilter(peer model.SwitchID) bool {
	if _, ok := g.filters[peer]; !ok {
		return false
	}
	delete(g.filters, peer)
	g.version++
	return true
}

func (g *refGFIB) Clear() {
	if len(g.filters) == 0 {
		return
	}
	g.filters = make(map[model.SwitchID]*bloom.Filter)
	g.version++
}

func (g *refGFIB) queryKey(key uint64) []model.SwitchID {
	var out []model.SwitchID
	for peer, f := range g.filters {
		if f.TestUint64(key) {
			out = append(out, peer)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *refGFIB) Peers() []model.SwitchID {
	out := make([]model.SwitchID, 0, len(g.filters))
	for peer := range g.filters {
		out = append(out, peer)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *refGFIB) SizeBytes() int {
	total := 0
	for _, f := range g.filters {
		total += f.SizeBytes()
	}
	return total
}

// TestGFIBMatchesReference drives GFIB and refGFIB with the same random
// programs and compares everything observable after every step:
// returned errors, candidate sets *and their order*, the peer walk,
// per-peer versions, serialized filters, storage and both counters.
func TestGFIBMatchesReference(t *testing.T) {
	const (
		programs = 1200
		steps    = 80
		peerIDs  = 12 // small, so installs, replacements and removals collide
		keySpace = 64
	)
	// Mixed geometries, two of them not a power of two (the % path).
	geometries := []struct {
		m uint64
		k uint32
	}{{64, 1}, {128, 2}, {192, 3}, {1024, 4}, {1984, 5}, {DefaultFilterBits, DefaultFilterHashes}}

	seen := make(map[string]int) // outcome classes the generator reached
	for prog := 0; prog < programs; prog++ {
		rng := rand.New(rand.NewPCG(uint64(prog), 23))
		got, ref := NewGFIB(), newRefGFIB()
		randFilter := func() *bloom.Filter {
			geo := geometries[rng.IntN(len(geometries))]
			f := bloom.New(geo.m, geo.k)
			for n := rng.IntN(8); n > 0; n-- {
				if rng.IntN(2) == 0 {
					f.AddUint64(MACKey(model.HostMAC(model.HostID(rng.IntN(keySpace)))))
				} else {
					f.AddUint64(IPKey(model.HostIP(model.HostID(rng.IntN(keySpace)))))
				}
			}
			return f
		}
		randPeer := func() model.SwitchID { return model.SwitchID(1 + rng.IntN(peerIDs)) }

		for step := 0; step < steps; step++ {
			at := fmt.Sprintf("program %d step %d", prog, step)
			sameErr := func(op string, a, b error) {
				t.Helper()
				if (a == nil) != (b == nil) || (a != nil && a.Error() != b.Error()) ||
					errors.Is(a, ErrDeltaBase) != errors.Is(b, ErrDeltaBase) ||
					errors.Is(a, bloom.ErrCorrupt) != errors.Is(b, bloom.ErrCorrupt) ||
					errors.Is(a, bloom.ErrDeltaRange) != errors.Is(b, bloom.ErrDeltaRange) {
					t.Fatalf("%s: %s error = %v, reference %v", at, op, a, b)
				}
			}
			switch op := rng.IntN(100); {
			case op < 18: // SetFilter (each side owns its own bit array)
				peer, f := randPeer(), randFilter()
				got.SetFilter(peer, f.Clone())
				ref.SetFilter(peer, f)
			case op < 40: // SetFilterBytes: fresh, in place, other geometry, corrupt
				peer, version := randPeer(), rng.Uint64N(6)
				data, _ := randFilter().MarshalBinary()
				switch rng.IntN(8) {
				case 0:
					data = data[:len(data)-1-rng.IntN(8)] // truncated
				case 1:
					data = append([]byte(nil), data...)
					data[rng.IntN(20)] ^= 0x55 // header damage: magic, m or k
				}
				_, held := ref.PeerVersion(peer)
				err := ref.SetFilterBytes(peer, data, version)
				sameErr("SetFilterBytes", got.SetFilterBytes(peer, data, version), err)
				switch {
				case err != nil:
					seen["bytes: corrupt"]++
				case held:
					seen["bytes: in place"]++
				default:
					seen["bytes: new peer"]++
				}
			case op < 65: // ApplyDelta: exact, late, duplicate, wrong base, out of range, absent peer
				peer := randPeer()
				held, _ := ref.PeerVersion(peer)
				base := held
				switch rng.IntN(4) {
				case 0:
					base = held + 1 + rng.Uint64N(3) // wrong base
				case 1:
					if held > 0 {
						base = held - 1 // late or duplicate
					}
				}
				target := base + rng.Uint64N(3) // sometimes ≤ held: a no-op
				nwords := uint32(1)
				if f := ref.filters[peer]; f != nil {
					nwords = uint32(f.SizeBytes() / 8)
				}
				if rng.IntN(6) == 0 {
					nwords *= 3 // two in three indexes out of range
				}
				words := make([]bloom.WordDelta, rng.IntN(5))
				for i := range words {
					words[i] = bloom.WordDelta{Index: rng.Uint32N(nwords), Word: rng.Uint64()}
				}
				before := ref.version
				err := ref.ApplyDelta(peer, base, target, words)
				sameErr("ApplyDelta", got.ApplyDelta(peer, base, target, words), err)
				switch {
				case errors.Is(err, ErrDeltaBase):
					seen["delta: base not held"]++
				case errors.Is(err, bloom.ErrDeltaRange):
					seen["delta: out of range"]++
				case ref.version == before:
					seen["delta: late or duplicate"]++
				default:
					seen["delta: applied"]++
				}
			case op < 75:
				peer := randPeer()
				a, b := got.RemoveFilter(peer), ref.RemoveFilter(peer)
				if a != b {
					t.Fatalf("%s: RemoveFilter(%d) = %v, reference %v", at, peer, a, b)
				}
				seen[fmt.Sprintf("remove: held=%v", b)]++
			case op < 77:
				got.Clear()
				ref.Clear()
			} // otherwise lookups only: the comparison below runs every step

			for probe := 0; probe < 4; probe++ {
				h := model.HostID(rng.IntN(keySpace))
				a, b := got.Query(model.HostMAC(h)), ref.queryKey(MACKey(model.HostMAC(h)))
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: Query(host %d) = %v, reference %v", at, h, a, b)
				}
				if len(b) > 1 {
					seen["query: several candidates"]++
				}
				if a, b := got.QueryIP(model.HostIP(h)), ref.queryKey(IPKey(model.HostIP(h))); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: QueryIP(host %d) = %v, reference %v", at, h, a, b)
				}
			}
			peers := ref.Peers()
			if a := got.Peers(); !slices.Equal(a, peers) {
				t.Fatalf("%s: Peers = %v, reference %v", at, a, peers)
			}
			if got.Len() != len(peers) || got.SizeBytes() != ref.SizeBytes() || got.Version() != ref.version {
				t.Fatalf("%s: Len/SizeBytes/Version = %d/%d/%d, reference %d/%d/%d", at,
					got.Len(), got.SizeBytes(), got.Version(), len(peers), ref.SizeBytes(), ref.version)
			}
			for i, peer := range peers {
				want, _ := ref.PeerVersion(peer)
				if p, v := got.At(i); p != peer || v != want {
					t.Fatalf("%s: At(%d) = (%d, %d), reference (%d, %d)", at, i, p, v, peer, want)
				}
			}
			for id := model.SwitchID(0); id <= peerIDs+1; id++ {
				av, aok := got.PeerVersion(id)
				bv, bok := ref.PeerVersion(id)
				if av != bv || aok != bok {
					t.Fatalf("%s: PeerVersion(%d) = (%d, %v), reference (%d, %v)", at, id, av, aok, bv, bok)
				}
			}
			if a, b := snapshotBytes(got), ref.SnapshotBytes(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: filter bytes differ from the reference", at)
			}
		}
	}
	for _, class := range []string{
		"bytes: new peer", "bytes: in place", "bytes: corrupt",
		"delta: applied", "delta: late or duplicate", "delta: base not held", "delta: out of range",
		"remove: held=true", "remove: held=false", "query: several candidates",
	} {
		if seen[class] < 100 {
			t.Errorf("the generator reached %q only %d times — the comparison above proves little about it", class, seen[class])
		}
	}
}

// TestGFIBLookupAndWalkDoNotAllocate pins the two hot readers: a lookup
// into a reused scratch (the edge slow path) and the peer/version walk
// (the chaos probe loop).
func TestGFIBLookupAndWalkDoNotAllocate(t *testing.T) {
	g := NewGFIB()
	for sw := model.SwitchID(2); sw <= 46; sw++ {
		f := bloom.New(DefaultFilterBits, DefaultFilterHashes)
		for h := 0; h < 24; h++ {
			f.AddUint64(MACKey(model.HostMAC(model.HostID(int(sw)*100 + h))))
		}
		g.SetFilter(sw, f)
	}
	scratch := make([]model.SwitchID, 0, 8)
	var found int
	if n := testing.AllocsPerRun(200, func() {
		for sw := 2; sw <= 46; sw++ {
			scratch = g.AppendQuery(scratch[:0], model.HostMAC(model.HostID(sw*100+3))) // a hit
			found += len(scratch)
			scratch = g.AppendQuery(scratch[:0], model.HostMAC(model.HostID(sw*100+50))) // a miss
			found += len(scratch)
		}
	}); n != 0 {
		t.Errorf("AppendQuery into a reused scratch: %v allocs per run, want 0", n)
	}
	if found == 0 {
		t.Fatal("no lookup hit: the scratch path was not exercised")
	}
	var sum uint64
	if n := testing.AllocsPerRun(200, func() {
		for i := 0; i < g.Len(); i++ {
			peer, v := g.At(i)
			sum += uint64(peer) + v
		}
	}); n != 0 {
		t.Errorf("At walk: %v allocs per run, want 0", n)
	}
}
