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
