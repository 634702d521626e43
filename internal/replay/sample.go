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

	// host switches the sampling unit from pairs to hosts: a pair is
	// kept iff BOTH endpoint hosts are hash-sampled, each with
	// probability q (threshold is then the per-host cut and p = q²).
	host bool
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

// NewHostSampler builds a host-level sampler: each host is kept with
// probability q (clamped to [0,1]), salted by seed, and a pair is in
// the sample iff both of its endpoints are kept. All pairs among the
// sampled hosts survive together, so host-local structure — fan-out,
// per-host flow-table pressure, a host's full traffic matrix row — is
// exact within the sample, which pair-level sampling destroys. The
// price is correlated inclusion: a pair's inclusion probability is
// π = q², but two pairs sharing a host are kept or dropped together
// through that host (joint probability q³, not q⁴), so the paired
// estimator must be built with NewHostEstimator, not NewEstimator.
func NewHostSampler(q float64, seed uint64) *PairSampler {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := &PairSampler{host: true, salt: trace.SplitMix64(seed ^ 0x686f7374 /* "host" */)}
	if q >= 1 {
		s.threshold = ^uint64(0)
	} else {
		s.threshold = uint64(q * float64(1<<63) * 2)
	}
	return s
}

// keepHost reports whether a single host is in a host-level sample.
func (s *PairSampler) keepHost(h model.HostID) bool {
	return trace.SplitMix64(uint64(h)^s.salt) < s.threshold
}

// PairKey folds a host pair into its canonical 64-bit key (direction-
// independent), the unit of sampling and of the estimator's strata.
func PairKey(a, b model.HostID) uint64 {
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
	if s.host {
		return s.keepHost(a) && s.keepHost(b)
	}
	return trace.SplitMix64(PairKey(a, b)^s.salt) < s.threshold
}
