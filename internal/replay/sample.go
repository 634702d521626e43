package replay

import (
	"lazyctrl/internal/model"
	"lazyctrl/internal/trace"
)

// PairSampler keeps a deterministic p-fraction of host pairs: a pair is
// in the sample iff trace.SplitMix64 of its canonical key (salted by the
// run seed) lands below p·2⁶⁴. Membership is decided per pair, not per
// flow — every flow of a kept pair is kept, in both directions — so the
// flow-table and C-LIB cache dynamics that drive the controller's
// PacketIn rate are exact within the sampled subpopulation, and the
// sample is identical no matter how the trace's windows are generated
// or ordered.
type PairSampler struct {
	threshold uint64
	salt      uint64
}

// NewPairSampler builds a sampler keeping pairs with probability p
// (clamped to [0,1]), salted by seed.
func NewPairSampler(p float64, seed uint64) *PairSampler {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s := &PairSampler{salt: trace.SplitMix64(seed ^ 0x70616972 /* "pair" */)}
	if p >= 1 {
		s.threshold = ^uint64(0)
	} else {
		s.threshold = uint64(p * float64(1<<63) * 2)
	}
	return s
}

// pairKey folds a host pair into its canonical 64-bit key (direction-
// independent), the unit of sampling.
func pairKey(a, b model.HostID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Keep reports whether the pair (a, b) is in the sample.
func (s *PairSampler) Keep(a, b model.HostID) bool {
	if s.threshold == ^uint64(0) {
		return true
	}
	return trace.SplitMix64(pairKey(a, b)^s.salt) < s.threshold
}
