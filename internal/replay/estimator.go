package replay

import (
	"math"
	"sort"
)

// Estimator carries the Horvitz–Thompson accounting of a sampled
// replay: per time bucket, how many flows each sampled pair
// contributed. Pairs are the sampling unit (inclusion probability p
// each, independent across pairs by hash), so the per-bucket flow
// total T̂ = Σ nᵢ/p is unbiased and its variance estimate is the
// standard HT form Var̂(T̂) = (1−p)/p² · Σ nᵢ² over the sampled pairs.
//
// The error model inherits pair sampling's weakness on heavy-tailed
// pair masses: when a dominant pair is excluded, both the estimate and
// the variance estimate miss its mass, so the nominal 95 % band covers
// ≈80 % on a heavy tail. See docs/emulation.md for the guidance the
// differential tests pin.
type Estimator struct {
	p       float64
	buckets []map[uint64]uint64 // per bucket: pair key → sampled flows

	// hostQ, when non-zero, marks host-level sampling (NewHostSampler):
	// hosts were kept independently with probability q and a pair is in
	// the sample iff both endpoints are, so p = q² but inclusions of
	// pairs sharing a host are positively correlated (joint probability
	// q³). EstimatedTotal is unchanged — HT unbiasedness needs only the
	// first-order π = q² — but the variance picks up a cross term, which
	// RelStdErr accounts for.
	hostQ float64
}

// NewEstimator builds an estimator over the given bucket count for
// sampling probability p.
func NewEstimator(p float64, buckets int) *Estimator {
	if buckets < 1 {
		buckets = 1
	}
	return &Estimator{p: p, buckets: make([]map[uint64]uint64, buckets)}
}

// NewHostEstimator builds the estimator paired with NewHostSampler(q,
// seed): pair inclusion probability q², host-correlation-aware
// variance. Estimates reweight by 1/q² exactly as the pair-level form
// does by 1/p.
func NewHostEstimator(q float64, buckets int) *Estimator {
	e := NewEstimator(q*q, buckets)
	e.hostQ = q
	return e
}

// Observe records one sampled flow on pair key in the given bucket.
func (e *Estimator) Observe(bucket int, key uint64) {
	if bucket < 0 {
		bucket = 0
	}
	if bucket >= len(e.buckets) {
		bucket = len(e.buckets) - 1
	}
	m := e.buckets[bucket]
	if m == nil {
		m = make(map[uint64]uint64)
		e.buckets[bucket] = m
	}
	m[key]++
}

// EstimatedTotal returns the HT estimate of the full flow population:
// sampled flows scale by 1/p.
func (e *Estimator) EstimatedTotal() float64 {
	if e.p <= 0 {
		return 0
	}
	var sampled uint64
	for _, m := range e.buckets {
		for _, c := range m {
			sampled += c
		}
	}
	return float64(sampled) / e.p
}

// RelStdErr returns the per-bucket relative standard error of the HT
// flow-total estimate: σ̂(T̂)/T̂, or 0 for empty buckets. Traffic-driven
// workload classes scale with the flow total, so the same relative
// error applies to their reweighted estimates.
func (e *Estimator) RelStdErr() []float64 {
	out := make([]float64, len(e.buckets))
	if e.p <= 0 || e.p >= 1 {
		return out // exhaustive (or empty) sample: no sampling error
	}
	for i, m := range e.buckets {
		// Sum in sorted key order: float addition is not associative,
		// so map-iteration order would perturb the error estimate's low
		// bits between runs.
		keys := make([]uint64, 0, len(m))
		for key := range m {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		var n, sq float64
		for _, key := range keys {
			c := m[key]
			n += float64(c)
			sq += float64(c) * float64(c)
		}
		if n == 0 {
			continue // empty bucket: no sampling error
		}
		if e.hostQ > 0 {
			out[i] = math.Sqrt(e.hostVariance(keys, m, sq)) / (n / e.p)
			continue
		}
		// Var̂(T̂) = (1−p)/p²·Σnᵢ² and T̂ = n/p ⇒ rel = √((1−p)·Σnᵢ²)/n.
		out[i] = math.Sqrt((1-e.p)*sq) / n
	}
	return out
}

// hostVariance evaluates the Horvitz–Thompson variance estimator for
// host-level sampling over one bucket's sampled pairs. With hosts kept
// independently at probability q, a pair's inclusion probability is
// π = q² and the joint probability for two distinct pairs is q³ when
// they share a host, q⁴ when disjoint. Plugging those into the HT
// variance estimator, the disjoint cross terms vanish and
//
//	Var̂(T̂) = (1−q²)/q⁴ · Σᵢ nᵢ² + (1−q)/q⁴ · Σ_h (S_h² − Q_h)
//
// where S_h (Q_h) is the sum of nᵢ (nᵢ²) over sampled pairs incident
// to host h — the second term is exactly Σ over ordered pair-pairs
// sharing a host of nᵢ·nⱼ, the positive correlation pair-level
// sampling does not have. keys must be sorted (float determinism) and
// sq must already hold Σ nᵢ².
func (e *Estimator) hostVariance(keys []uint64, m map[uint64]uint64, sq float64) float64 {
	hostN := make(map[uint64]float64, 2*len(keys))
	hostSq := make(map[uint64]float64, 2*len(keys))
	for _, key := range keys {
		c := float64(m[key])
		a, b := key>>32, key&0xffffffff
		hostN[a] += c
		hostSq[a] += c * c
		if b != a {
			hostN[b] += c
			hostSq[b] += c * c
		}
	}
	hosts := make([]uint64, 0, len(hostN))
	for h := range hostN {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(a, b int) bool { return hosts[a] < hosts[b] })
	var cross float64
	for _, h := range hosts {
		cross += hostN[h]*hostN[h] - hostSq[h]
	}
	q := e.hostQ
	q4 := q * q * q * q
	return (1-q*q)/q4*sq + (1-q)/q4*cross
}
