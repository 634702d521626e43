package netsim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"lazyctrl/internal/sim"
)

// TestBlockSlotsNeverOverlap takes slots in random runs of Take and
// Next, requests larger than blockLen included: every slot comes back
// zeroed, a Take's slots are capped at its length, and each slot keeps
// the distinct value written into it when it was taken, so none was
// handed out twice.
func TestBlockSlotsNeverOverlap(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var b Block[uint64]
	var slots []*uint64
	for range 2000 {
		from := len(slots)
		if n := rng.IntN(3 * blockLen / 2); n == 0 {
			slots = append(slots, b.Next())
		} else {
			got := b.Take(n)
			if len(got) != n || cap(got) != n {
				t.Fatalf("Take(%d) returned len %d, cap %d", n, len(got), cap(got))
			}
			for i := range got {
				slots = append(slots, &got[i])
			}
		}
		for i, p := range slots[from:] {
			if *p != 0 {
				t.Fatalf("slot %d was handed out holding slot %d's value", from+i, *p-1)
			}
			*p = uint64(from + i + 1)
		}
	}
	for i, p := range slots {
		if *p != uint64(i+1) {
			t.Fatalf("slot %d holds slot %d's value: a later take overlapped it", i, *p-1)
		}
	}
}

// TestBlockGrowth pins the allocation sizes: from one slot, doubling,
// to blockLen, then blockLen each. The element is a size class of its
// own at every count up to blockLen, so the capacities are exactly the
// requests.
func TestBlockGrowth(t *testing.T) {
	var b Block[[64]byte]
	var caps []int
	for range 4 * blockLen {
		before := b.slots
		b.Next()
		if len(before) == cap(before) {
			caps = append(caps, cap(b.slots))
		}
	}
	want := []int{1, 2, 4, 8, 16, 32, 32, 32, 32}
	if !slices.Equal(caps, want) {
		t.Errorf("allocation sizes %v, want %v", caps, want)
	}
}

// TestBlockAllocations pins the cost of a slot: 10,000 Nexts make a
// blockLen-th as many allocations, plus the growth to full size.
func TestBlockAllocations(t *testing.T) {
	const n = 10_000
	allocs := testing.AllocsPerRun(10, func() {
		var b Block[[3]uint64]
		for range n {
			b.Next()
		}
	})
	if bound := float64(n/blockLen + 6); allocs > bound {
		t.Errorf("%d Nexts made %.0f allocations, want ≤ %.0f", n, allocs, bound)
	}
}

// TestBlockTakesSizeClass pins that an allocation keeps the capacity
// the allocator's size class gives it, and hands all of it out: one
// 3-byte slot rounds up to the 8-byte class, so the first allocation
// serves two Nexts.
func TestBlockTakesSizeClass(t *testing.T) {
	var b Block[[3]byte]
	first := b.Next()
	if got := cap(b.slots); got != 2 {
		t.Fatalf("a one-slot request got capacity %d, want the size class's 2", got)
	}
	if second := b.Next(); second != &b.slots[1] || first != &b.slots[0] {
		t.Error("the second Next did not take the first allocation's spare slot")
	}
}

// TestBlockForSharesPerNetwork pins where BlockFor's blocks live: the
// nodes of one DES network share one per type, another network or type
// gets its own, and an env that is not the DES a fresh one per call.
func TestBlockForSharesPerNetwork(t *testing.T) {
	s := sim.New(1)
	n, other := New(s, DefaultLatencies()), New(s, DefaultLatencies())
	b := BlockFor[uint64](n.Env(1))
	if BlockFor[uint64](n.Env(2)) != b {
		t.Error("two nodes of one network got different blocks")
	}
	if BlockFor[uint64](other.Env(1)) == b {
		t.Error("two networks share a block")
	}
	BlockFor[int64](n.Env(1)).Next()
	if len(b.slots) != 0 {
		t.Error("a block of another type took a slot of this one")
	}
	wrapped := struct{ Env }{n.Env(1)}
	if w := BlockFor[uint64](wrapped); w == b || w == BlockFor[uint64](wrapped) {
		t.Error("an env off the DES did not get a block of its own")
	}
}
