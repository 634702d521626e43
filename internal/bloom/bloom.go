// Package bloom implements the Bloom filters that back the G-FIB of a
// LazyCtrl edge switch. Each edge switch keeps one filter per peer switch
// in its local control group, summarizing that peer's L-FIB; querying the
// set of filters yields the candidate locations of a destination MAC
// (§III-D2 of the paper).
//
// The implementation uses the standard partition-free m-bit array with k
// indices derived by double hashing (Kirsch–Mitzenmacher), which keeps
// Add/Test allocation-free.
package bloom

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
)

// Filter is a Bloom filter over byte-string keys. The zero value is not
// usable; construct with New.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    uint32 // number of hash functions
	// version is the owner-assigned monotonic state version of the
	// filter (see Version). It travels in the delta-protocol wire
	// messages, not in MarshalBinary's blob.
	version uint64
}

// MaxHashes bounds a filter's hash count. The textbook optimum at
// p = 10⁻¹² is 40 hashes, so 64 is generous; the bound exists because
// a lookup costs k probes and k arrives off the wire (UnmarshalBinary).
const MaxHashes = 64

// New returns a filter with m bits and k hash functions. m is rounded up
// to a multiple of 64 and k clamped to [1, MaxHashes], so every filter
// that marshals also decodes.
func New(m uint64, k uint32) *Filter {
	if m == 0 {
		m = 64
	}
	k = min(max(k, 1), MaxHashes)
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: words * 64, k: k}
}

// Version returns the filter's state version. Versions are assigned by
// the filter's owner (for a G-FIB filter, the origin switch's L-FIB
// version at build time) and are the base/target coordinates of the
// word-level delta protocol: a delta from base v to target v' applies
// only to a filter currently at version v.
func (f *Filter) Version() uint64 { return f.version }

// SetVersion records the owner-assigned state version.
func (f *Filter) SetVersion(v uint64) { f.version = v }

// SizeBytes returns the storage footprint of the bit array.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// fnv1a64 is an inlined FNV-1a so Add/Test do not allocate.
func fnv1a64(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// index derives the i-th bit position of a hashed key via double
// hashing (Kirsch–Mitzenmacher): g_i(x) = h1 + i·h2 (mod m). When m is
// a power of two the reduction is a mask — the same residue as %, so
// the bit positions (and the false-positive set) do not depend on
// which form ran.
func (f *Filter) index(h1, h2 uint64, i uint32) uint64 {
	x := h1 + uint64(i)*h2
	if f.m&(f.m-1) == 0 {
		return x & (f.m - 1)
	}
	return x % f.m
}

// Key is a key hashed once. The hash does not depend on any filter's
// geometry, so one Key tests any number of filters (TestKey) — the
// G-FIB hashes a destination once per lookup instead of once per peer.
type Key struct{ h1, h2 uint64 }

// HashUint64 hashes a uint64 key exactly as AddUint64/TestUint64 do.
func HashUint64(v uint64) Key {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h1, h2 := splitHash(b[:])
	return Key{h1, h2}
}

func splitHash(data []byte) (h1, h2 uint64) {
	h := fnv1a64(data)
	h1 = h
	// Derive the second hash by re-mixing; ensure it is odd so the probe
	// sequence covers the table when m is a power of two.
	h2 = (h>>33 ^ h) * 0xff51afd7ed558ccd
	h2 |= 1
	return h1, h2
}

// Add inserts data into the filter.
func (f *Filter) Add(data []byte) {
	h1, h2 := splitHash(data)
	for i := uint32(0); i < f.k; i++ {
		idx := f.index(h1, h2, i)
		f.bits[idx/64] |= 1 << (idx % 64)
	}
}

// AddUint64 inserts a uint64 key (e.g. a packed MAC address).
func (f *Filter) AddUint64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	f.Add(b[:])
}

// TestUint64 reports whether a uint64 key is possibly in the set.
func (f *Filter) TestUint64(v uint64) bool { return f.TestKey(HashUint64(v)) }

// TestKey reports whether a key hashed beforehand is possibly in the
// set. False positives are possible; false negatives are not.
func (f *Filter) TestKey(key Key) bool {
	for i := uint32(0); i < f.k; i++ {
		idx := f.index(key.h1, key.h2, i)
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// FPPFor returns the expected false-positive probability of a filter with
// m bits and k hashes holding n elements. Exposed for capacity planning
// (the storage-overhead experiment, §V-D).
func FPPFor(m uint64, k uint32, n uint64) float64 {
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

const marshalMagic = 0x4c435f4246 // "LC_BF"

// marshalHeaderLen is the encoding's fixed prefix: magic (8), m (8), k (4).
const marshalHeaderLen = 20

// MarshaledLen is the length of MarshalBinary's encoding.
func (f *Filter) MarshaledLen() int { return marshalHeaderLen + f.SizeBytes() }

// MarshalBinary encodes the filter for dissemination over peer/state
// links: magic, geometry, and the bit array. Two filters with the same
// bits always encode identically — the invariant the delta-protocol
// differential tests pin.
func (f *Filter) MarshalBinary() ([]byte, error) {
	return f.AppendBinary(make([]byte, 0, f.MarshaledLen()))
}

// AppendBinary appends MarshalBinary's encoding to b and returns the
// extended slice (encoding.BinaryAppender), so a caller that reuses its
// buffer encodes without allocating. It has no failure path.
func (f *Filter) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, f.MarshaledLen())
	b = binary.BigEndian.AppendUint64(b, marshalMagic)
	b = binary.BigEndian.AppendUint64(b, f.m)
	b = binary.BigEndian.AppendUint32(b, f.k)
	for _, w := range f.bits {
		b = binary.BigEndian.AppendUint64(b, w)
	}
	return b, nil
}

// ErrCorrupt reports a malformed filter encoding.
var ErrCorrupt = errors.New("bloom: corrupt encoding")

// UnmarshalBinary decodes a filter produced by MarshalBinary. When the
// receiver already holds a bit array of the right geometry it is decoded
// into in place, so periodic re-dissemination does not allocate.
func (f *Filter) UnmarshalBinary(data []byte) error {
	if len(data) < marshalHeaderLen {
		return ErrCorrupt
	}
	if binary.BigEndian.Uint64(data[0:8]) != marshalMagic {
		return ErrCorrupt
	}
	m := binary.BigEndian.Uint64(data[8:16])
	k := binary.BigEndian.Uint32(data[16:20])
	words := int(m / 64)
	// m and k come off the wire: m = 0 would divide by zero in index,
	// and a lookup costs k probes.
	if m < 64 || m%64 != 0 || len(data) != marshalHeaderLen+words*8 || k == 0 || k > MaxHashes {
		return ErrCorrupt
	}
	bits := f.bits
	if len(bits) != words {
		bits = make([]uint64, words)
	}
	payload := data[marshalHeaderLen:]
	for i := range bits {
		bits[i] = binary.BigEndian.Uint64(payload[i*8 : i*8+8])
	}
	f.m, f.k, f.bits = m, k, bits
	return nil
}

// Clone returns a deep copy of the filter.
func (f *Filter) Clone() *Filter {
	bits := make([]uint64, len(f.bits))
	copy(bits, f.bits)
	return &Filter{bits: bits, m: f.m, k: f.k, version: f.version}
}

// WordDelta is one changed 64-bit word of a filter's bit array: the
// word index and its new value. A host arrival flips at most k bits, so
// a churn step touches O(k) words out of m/64 — the delta protocol
// ships those instead of the whole array.
type WordDelta struct {
	Index uint32
	Word  uint64
}

// ErrGeometry reports a delta or diff between filters of different
// geometry; the delta protocol falls back to a full filter push.
var ErrGeometry = errors.New("bloom: filter geometry mismatch")

// ErrDeltaRange reports a delta word index outside the filter's array.
var ErrDeltaRange = errors.New("bloom: delta word index out of range")

// DiffWords returns the words of f that differ from old, in ascending
// index order. The result applied to old via ApplyWords reproduces f's
// bit array exactly. Filters of different geometry cannot be diffed.
func (f *Filter) DiffWords(old *Filter) ([]WordDelta, error) {
	if old == nil || f.m != old.m || f.k != old.k {
		return nil, ErrGeometry
	}
	var out []WordDelta
	for i, w := range f.bits {
		if w != old.bits[i] {
			out = append(out, WordDelta{Index: uint32(i), Word: w})
		}
	}
	return out, nil
}

// ApplyWords overwrites the given words of the bit array, completing
// one delta step. Indexes are validated before any word is written, so
// a malformed delta leaves the filter untouched. Version bookkeeping
// is the caller's (the base-version check lives in the G-FIB, which
// knows what it holds).
func (f *Filter) ApplyWords(words []WordDelta) error {
	for _, w := range words {
		if int(w.Index) >= len(f.bits) {
			return ErrDeltaRange
		}
	}
	for _, w := range words {
		f.bits[w.Index] = w.Word
	}
	return nil
}
