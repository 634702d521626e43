// Package trace is a maporder fixture: range-over-map loops feeding
// encode/hash/float sinks, plus the approved collect-sort-iterate
// shape. It imports the real openflow codec to prove the fixture
// loader resolves production packages.
package trace

import (
	"hash/fnv"
	"sort"

	"lazyctrl/internal/openflow"
)

type rec struct{ buf []byte }

// MarshalEntry is an encode sink by naming convention.
func (r *rec) MarshalEntry(v uint64) {
	r.buf = append(r.buf, byte(v))
}

func FlaggedMarshal(m map[uint64]uint64) *rec {
	r := &rec{}
	for k, v := range m {
		r.MarshalEntry(k + v) // want `wire encoding inside range over a map`
	}
	return r
}

// FlaggedRealCodec drives the production openflow encoder with
// map-ordered payloads.
func FlaggedRealCodec(m map[uint32]uint32) [][]byte {
	var out [][]byte
	for _, xid := range m {
		b, err := openflow.Encode(&openflow.KeepAlive{}, xid) // want `wire encoding inside range over a map`
		if err == nil {
			out = append(out, b)
		}
	}
	return out
}

func FlaggedHash(m map[uint64][]byte) uint64 {
	h := fnv.New64a()
	for _, v := range m {
		h.Write(v) // want `hash accumulation inside range over a map`
	}
	return h.Sum64()
}

func FlaggedFloat(m map[uint64]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation in map-iteration order`
	}
	return sum
}

func FlaggedFloatPlain(m map[uint64]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v/2 // want `float accumulation in map-iteration order`
	}
	return sum
}

// helper encodes on the caller's behalf: the one-level callee scan
// must see through it.
func helper(r *rec, v uint64) {
	r.MarshalEntry(v)
}

func FlaggedViaHelper(m map[uint64]uint64) *rec {
	r := &rec{}
	for k := range m {
		helper(r, k) // want `wire encoding inside range over a map .*\(via helper\)`
	}
	return r
}

// CleanSorted is the approved idiom: collect keys, sort, iterate the
// slice.
func CleanSorted(m map[uint64]uint64) *rec {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	r := &rec{}
	for _, k := range keys {
		r.MarshalEntry(m[k])
	}
	return r
}

// CleanIntSum: integer accumulation is associative; map order cannot
// change the result.
func CleanIntSum(m map[uint64]uint64) uint64 {
	var sum uint64
	for _, v := range m {
		sum += v
	}
	return sum
}

// CleanLoopInvariant: the encode call takes nothing loop-derived.
func CleanLoopInvariant(m map[uint64]uint64) *rec {
	r := &rec{}
	n := 0
	for range m {
		n++
	}
	r.MarshalEntry(uint64(n))
	return r
}
