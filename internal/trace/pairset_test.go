package trace

import (
	"math"
	"math/rand/v2"
	"testing"

	"lazyctrl/internal/model"
)

// TestPairSetMatchesMap fills a pairSet to its sizing bound (half its
// slots) and checks every insert and lookup against a map of canonical
// keys. The keys repeat often, share a Src or a Dst, or differ only in
// the top bits of the packed word, where the hash takes its slot.
func TestPairSetMatchesMap(t *testing.T) {
	const n = 1 << 12
	s := newPairSet(n)
	if len(s.slots) != 2*n {
		t.Fatalf("newPairSet(%d) has %d slots, want %d", n, len(s.slots), 2*n)
	}
	ref := make(map[model.FlowKey]bool, n)
	rng := rand.New(rand.NewPCG(7, 11))
	id := func(n int) model.HostID { return model.HostID(1 + rng.IntN(n)) }
	draw := func() model.FlowKey {
		switch rng.IntN(5) {
		case 0: // a few hosts: many duplicates
			return model.FlowKey{Src: id(80), Dst: id(80)}
		case 1: // one shared Src
			return model.FlowKey{Src: 3, Dst: id(1 << 20)}
		case 2: // one shared Dst
			return model.FlowKey{Src: id(1 << 20), Dst: 1<<20 + 5}
		case 3: // Src differs only in its top byte, Dst the largest ID
			return model.FlowKey{Src: model.HostID(rng.IntN(256))<<24 | 1, Dst: math.MaxUint32}
		default:
			return model.FlowKey{Src: id(math.MaxUint32), Dst: id(math.MaxUint32)}
		}
	}
	for len(ref) < n {
		k := draw()
		if got, want := s.insert(k), !ref[k.Canonical()]; got != want {
			t.Fatalf("insert(%v) = %v, want %v", k, got, want)
		}
		ref[k.Canonical()] = true
		q := draw()
		if got, want := s.has(q), ref[q.Canonical()]; got != want {
			t.Fatalf("has(%v) = %v, want %v at %d pairs", q, got, want, len(ref))
		}
	}
	for k := range ref {
		if !s.has(k) || !s.has(model.FlowKey{Src: k.Dst, Dst: k.Src}) {
			t.Fatalf("pair %v lost", k)
		}
	}
	used := 0
	for _, v := range s.slots {
		if v != 0 {
			used++
		}
	}
	if used != n {
		t.Fatalf("%d slots used, want %d", used, n)
	}
}
