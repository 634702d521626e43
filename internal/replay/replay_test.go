package replay

import (
	"math"
	"testing"
	"time"

	"lazyctrl/internal/model"
)

// TestPairSamplerDeterministicFraction pins the sampler's two load-
// bearing properties: membership is a pure function of (seed, pair) —
// identical across sampler instances and call order — and the kept
// fraction concentrates around p over many pairs.
func TestPairSamplerDeterministicFraction(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.5} {
		a := NewPairSampler(p, 42)
		b := NewPairSampler(p, 42)
		kept := 0
		const pairs = 200_000
		for i := 0; i < pairs; i++ {
			x := model.HostID(i + 1)
			y := model.HostID(i + 7 + (i % 13))
			if a.Keep(x, y) != b.Keep(x, y) {
				t.Fatalf("p=%v: samplers disagree on (%v,%v)", p, x, y)
			}
			if a.Keep(x, y) != a.Keep(y, x) {
				t.Fatalf("p=%v: direction changed membership of (%v,%v)", p, x, y)
			}
			if a.Keep(x, y) {
				kept++
			}
		}
		got := float64(kept) / pairs
		// 5σ binomial band.
		band := 5 * math.Sqrt(p*(1-p)/pairs)
		if math.Abs(got-p) > band {
			t.Errorf("p=%v: kept fraction %v outside ±%v", p, got, band)
		}
	}
	if s := NewPairSampler(1, 9); !s.Keep(1, 2) {
		t.Error("p=1 must keep everything")
	}
	if s := NewPairSampler(0, 9); s.Keep(1, 2) {
		t.Error("p=0 must keep nothing")
	}
}

// TestPairSamplerSeedsDiffer guards against a degenerate salt: two
// seeds must select visibly different samples.
func TestPairSamplerSeedsDiffer(t *testing.T) {
	a, b := NewPairSampler(0.2, 1), NewPairSampler(0.2, 2)
	differ := 0
	for i := 0; i < 10_000; i++ {
		if a.Keep(model.HostID(i+1), model.HostID(i+500)) != b.Keep(model.HostID(i+1), model.HostID(i+500)) {
			differ++
		}
	}
	if differ == 0 {
		t.Error("seeds 1 and 2 selected identical samples")
	}
}

// TestHostSamplerClosure pins the host-mode contract: membership is
// decided per host, a pair is kept iff both endpoints are, so the kept
// pairs are exactly all pairs of the sampled hosts — and P() reports
// the pair inclusion probability q².
func TestHostSamplerClosure(t *testing.T) {
	const q = 0.3
	s := NewHostSampler(q, 7)
	s2 := NewHostSampler(q, 7)
	if got := s.P(); math.Abs(got-q*q) > 1e-12 {
		t.Fatalf("P() = %v, want q² = %v", got, q*q)
	}
	const hosts = 5000
	kept := make(map[model.HostID]bool)
	for h := model.HostID(1); h <= hosts; h++ {
		if s.keepHost(h) {
			kept[h] = true
		}
	}
	frac := float64(len(kept)) / hosts
	if band := 5 * math.Sqrt(q*(1-q)/hosts); math.Abs(frac-q) > band {
		t.Errorf("kept host fraction %v outside %v±%v", frac, q, band)
	}
	for a := model.HostID(1); a <= 200; a++ {
		for b := a + 1; b <= 200; b++ {
			want := kept[a] && kept[b]
			if got := s.Keep(a, b); got != want {
				t.Fatalf("Keep(%v,%v) = %v, want %v (host membership: %v,%v)",
					a, b, got, want, kept[a], kept[b])
			}
			if s.Keep(b, a) != want || s2.Keep(a, b) != want {
				t.Fatalf("host sampling not deterministic/symmetric on (%v,%v)", a, b)
			}
		}
	}
	if s := NewHostSampler(1, 9); !s.Keep(1, 2) {
		t.Error("q=1 must keep everything")
	}
	if s := NewHostSampler(0, 9); s.Keep(1, 2) {
		t.Error("q=0 must keep nothing")
	}
}

// estimatorTrial runs one seeded sampling draw over a synthetic pair
// population and reports the HT estimate and its 3σ half-width.
func estimatorTrial(weights []uint64, p float64, seed uint64) (est, half float64) {
	s := NewPairSampler(p, seed)
	e := NewEstimator(p, 1)
	for i, w := range weights {
		a, b := model.HostID(2*i+1), model.HostID(2*i+2)
		if !s.Keep(a, b) {
			continue
		}
		for k := uint64(0); k < w; k++ {
			e.Observe(0, PairKey(a, b))
		}
	}
	est = e.EstimatedTotal()
	return est, 3 * e.RelStdErr()[0] * est
}

// hostPairList enumerates all unordered pairs over a 64-host
// population — the shared-endpoint topology host-level sampling
// exists for (every host appears in 63 pairs).
func hostPairList() []model.FlowKey {
	const universe = 64
	var out []model.FlowKey
	for a := 1; a <= universe; a++ {
		for b := a + 1; b <= universe; b++ {
			out = append(out, model.FlowKey{Src: model.HostID(a), Dst: model.HostID(b)})
		}
	}
	return out
}

// estimatorTrialHost is estimatorTrial for the host-level design:
// hosts sampled at q, pairs kept iff both endpoints are, estimates
// reweighted by 1/q² with the correlation-aware variance.
func estimatorTrialHost(weights []uint64, q float64, seed uint64) (est, half float64) {
	pairs := hostPairList()
	s := NewHostSampler(q, seed)
	e := NewHostEstimator(q, 1)
	for i, w := range weights {
		a, b := pairs[i].Src, pairs[i].Dst
		if !s.Keep(a, b) {
			continue
		}
		for k := uint64(0); k < w; k++ {
			e.Observe(0, PairKey(a, b))
		}
	}
	est = e.EstimatedTotal()
	return est, 3 * e.RelStdErr()[0] * est
}

// TestRelStdErrStable pins the determinism fix lazyvet's maporder
// analyzer forced: the error estimate sums floats in sorted key order
// (per pair, and per host in host mode), so repeated evaluations over
// the same buckets are bit-identical.
func TestRelStdErrStable(t *testing.T) {
	for name, e := range map[string]*Estimator{
		"pair": NewEstimator(0.1, 1),
		// Key i decomposes as hosts (0, i): one hub host shared by every
		// sampled pair, the worst case for the cross-term summation.
		"host": NewHostEstimator(0.3, 1),
	} {
		for i := uint64(0); i < 500; i++ {
			for k := uint64(0); k <= i%7; k++ {
				e.Observe(0, i)
			}
		}
		first := e.RelStdErr()[0]
		for i := 0; i < 5; i++ {
			if got := e.RelStdErr()[0]; got != first {
				t.Fatalf("%s run %d: RelStdErr = %v, want bit-identical %v", name, i, got, first)
			}
		}
	}
}

// TestEstimatorUnbiasedAndCovered simulates the estimator's own
// contract directly over synthetic pair populations: the HT estimate
// must be unbiased across seeds, 3σ bands on a moderately skewed
// population must cover the truth in ≳90% of draws, and on a
// population whose top pair alone carries ~12% of the mass — the
// documented worst case for pair-level HT — it degrades to the ≥75%
// level (docs/emulation.md).
//
// The host-mode cases run the same contract for host-level sampling
// (NewHostSampler/NewHostEstimator, π = q²) over an all-pairs 64-host
// population, where pairs share endpoints and inclusions are
// correlated: the estimate must stay unbiased and the
// correlation-aware variance must keep 3σ coverage — a pair-level
// variance formula applied to host sampling underestimates the error
// exactly because of the shared-host cross terms.
func TestEstimatorUnbiasedAndCovered(t *testing.T) {
	const pairs = 2000
	const p = 0.1
	const trials = 200
	cases := []struct {
		name        string
		weight      func(i int) uint64
		hostQ       float64 // 0 = pair-level sampling
		minCoverage int
	}{
		{"moderate-skew", func(i int) uint64 { return uint64(1 + 200/(i+5)) }, 0, trials * 88 / 100},
		{"heavy-tail", func(i int) uint64 { return uint64(1 + 5000/(i+1)) }, 0, trials * 75 / 100},
		// Host mode at q≈√p keeps a comparable pair fraction. The index
		// ordering of hostPairList makes host 1 the hub of the heaviest
		// 63 pairs, so the correlated-inclusion cross terms matter.
		{"host-moderate-skew", func(i int) uint64 { return uint64(1 + 200/(i+5)) }, 0.35, trials * 88 / 100},
		{"host-uniform", func(i int) uint64 { return uint64(3 + i%5) }, 0.35, trials * 90 / 100},
	}
	for _, tc := range cases {
		n := pairs
		if tc.hostQ > 0 {
			n = len(hostPairList())
		}
		weights := make([]uint64, n)
		var truth float64
		for i := range weights {
			weights[i] = tc.weight(i)
			truth += float64(weights[i])
		}
		covered := 0
		var sumEst float64
		for seed := uint64(1); seed <= trials; seed++ {
			var est, half float64
			if tc.hostQ > 0 {
				est, half = estimatorTrialHost(weights, tc.hostQ, seed)
			} else {
				est, half = estimatorTrial(weights, p, seed)
			}
			sumEst += est
			if math.Abs(est-truth) <= half {
				covered++
			}
		}
		if mean := sumEst / trials; math.Abs(mean-truth)/truth > 0.10 {
			t.Errorf("%s: estimator biased: mean %v vs truth %v", tc.name, mean, truth)
		}
		t.Logf("%s: 3σ coverage %d/%d", tc.name, covered, trials)
		if covered < tc.minCoverage {
			t.Errorf("%s: 3σ band covered truth in %d/%d trials, want ≥ %d",
				tc.name, covered, trials, tc.minCoverage)
		}
	}
}

// TestExpectedBatchDelayRegimes pins the model's shape: a lone packet
// waits out the deadline, the sparse limit tends to the window, and
// the count-dominated regime shrinks with the arrival rate.
func TestExpectedBatchDelayRegimes(t *testing.T) {
	const w = time.Millisecond
	if got := ExpectedBatchDelay(0, w, 8); got != w {
		t.Errorf("zero rate: %v, want %v", got, w)
	}
	if got := ExpectedBatchDelay(1, w, 8); got < 9*w/10 || got > w {
		t.Errorf("sparse regime: %v, want ≈%v", got, w)
	}
	// 100k pins/s against an 8-packet cap: the window fills in 80 µs;
	// mean position wait is (B−1)/(2λ) = 35 µs.
	if got := ExpectedBatchDelay(100_000, w, 8); got < 30*time.Microsecond || got > 40*time.Microsecond {
		t.Errorf("count regime: %v, want ≈35µs", got)
	}
	if got := ExpectedBatchDelay(1000, w, 1); got != 0 {
		t.Errorf("batching disabled: %v, want 0", got)
	}
	// Monotone: more traffic never increases the expected wait.
	prev := ExpectedBatchDelay(0, w, 8)
	for _, rate := range []float64{10, 100, 1000, 7000, 50_000, 500_000} {
		cur := ExpectedBatchDelay(rate, w, 8)
		if cur > prev {
			t.Errorf("delay grew with rate at λ=%v: %v > %v", rate, cur, prev)
		}
		prev = cur
	}
}
