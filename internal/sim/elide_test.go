package sim

import (
	"testing"
	"time"
)

// TestElideFoldsQuietRounds pins the core contract: a task that is
// always quiet fires its rounds at exactly the Every phase, every
// round is either run or credited exactly once, and the executed event
// count collapses by the fold factor.
func TestElideFoldsQuietRounds(t *testing.T) {
	s := New(1)
	const interval = time.Second
	var ran, credited []Time
	var el *Elider
	el = s.EveryElidable(interval,
		func() { ran = append(ran, s.Now()) },
		func() int { return 9 },
		func(rounds int) {
			for i := rounds - 1; i >= 0; i-- {
				credited = append(credited, el.CreditedThrough()-Time(i)*Time(interval))
			}
		})
	s.RunUntil(Time(100 * time.Second))
	el.Stop() // settle the tail fold at the horizon, as harnesses do

	// Rounds 1..100 at t=1s..100s: each accounted exactly once.
	seen := make(map[Time]int)
	for _, at := range ran {
		seen[at] += 1
	}
	for _, at := range credited {
		seen[at] += 1
	}
	for k := 1; k <= 100; k++ {
		at := Time(k) * Time(interval)
		if seen[at] != 1 {
			t.Fatalf("round at %v accounted %d times", at, seen[at])
		}
	}
	if len(seen) != 100 {
		t.Fatalf("accounted %d distinct rounds, want 100", len(seen))
	}
	// 100 rounds at fold 9 → 10 real fires (1 real + 9 credited each).
	if len(ran) != 10 {
		t.Fatalf("ran %d real rounds, want 10", len(ran))
	}
	if got := s.Executed(); got != 10 {
		t.Fatalf("executed %d events, want 10", got)
	}
}

// TestElideWakeRematerializes pins wake semantics: completed folded
// rounds are credited at their true boundaries, the next round runs as
// a real event one interval after the last settled round, and at least
// one real round runs before the task folds again.
func TestElideWakeRematerializes(t *testing.T) {
	s := New(1)
	const interval = time.Second
	var ran []Time
	creditedRounds := 0
	quietRounds := 1000
	var el *Elider
	el = s.EveryElidable(interval,
		func() { ran = append(ran, s.Now()) },
		func() int { return quietRounds },
		func(rounds int) { creditedRounds += rounds })

	// First round runs real at 1s, then folds 1000 rounds.
	s.RunUntil(Time(1 * time.Second))
	if len(ran) != 1 || el.Elided() != true {
		t.Fatalf("after first round: ran=%v elided=%v", ran, el.Elided())
	}
	// Wake mid-fold at 5.5s: rounds at 2,3,4,5s are settled.
	s.At(Time(5500*time.Millisecond), func() { el.Wake() })
	s.RunUntil(Time(5500 * time.Millisecond))
	if creditedRounds != 4 {
		t.Fatalf("credited %d rounds at wake, want 4", creditedRounds)
	}
	if got := el.CreditedThrough(); got != Time(5*time.Second) {
		t.Fatalf("CreditedThrough %v, want 5s", got)
	}
	if el.Elided() {
		t.Fatal("still elided after wake")
	}
	// The next round is real at 6s — phase preserved.
	s.RunUntil(Time(6 * time.Second))
	if len(ran) != 2 || ran[1] != Time(6*time.Second) {
		t.Fatalf("post-wake real round at %v, want 6s", ran)
	}
	// A wake on a non-elided task is a no-op.
	before := s.Pending()
	el.Wake()
	if s.Pending() != before {
		t.Fatal("wake on non-elided task rescheduled")
	}
}

// TestElideStopSettles pins that Stop credits passed boundaries, so
// aggregate accounting stays exact when timers are torn down mid-fold.
func TestElideStopSettles(t *testing.T) {
	s := New(1)
	credited := 0
	el := s.EveryElidable(time.Second,
		func() {},
		func() int { return 100 },
		func(rounds int) { credited += rounds })
	s.RunUntil(Time(1 * time.Second)) // real round, then fold 100
	s.At(Time(7300*time.Millisecond), func() { el.Stop() })
	s.RunUntil(Time(10 * time.Second))
	if credited != 6 {
		t.Fatalf("stop settled %d rounds, want 6 (boundaries 2s..7s)", credited)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("stopped task left %d live events", got)
	}
}

// TestElideCapBounds pins the fold-span cap: an unbounded quiet answer
// is clamped, so credit batches stay bounded.
func TestElideCapBounds(t *testing.T) {
	s := New(1)
	maxBatch := 0
	s.EveryElidable(time.Second,
		func() {},
		func() int { return 1 << 30 },
		func(rounds int) {
			if rounds > maxBatch {
				maxBatch = rounds
			}
		})
	s.RunUntil(Time(3 * maxElideRounds * int64(time.Second)))
	if maxBatch != maxElideRounds {
		t.Fatalf("largest credit batch %d, want cap %d", maxBatch, maxElideRounds)
	}
}

// TestElideNeverQuietMatchesEvery pins that a task whose quiet answer
// is always zero is indistinguishable from Every.
func TestElideNeverQuietMatchesEvery(t *testing.T) {
	a, b := New(7), New(7)
	var fromEvery, fromElide []Time
	a.Every(3*time.Second, func() { fromEvery = append(fromEvery, a.Now()) })
	b.EveryElidable(3*time.Second,
		func() { fromElide = append(fromElide, b.Now()) },
		func() int { return 0 },
		func(int) { t.Fatal("credited with quiet=0") })
	a.RunUntil(Time(time.Minute))
	b.RunUntil(Time(time.Minute))
	if len(fromEvery) != len(fromElide) {
		t.Fatalf("fired %d vs Every's %d", len(fromElide), len(fromEvery))
	}
	for i := range fromEvery {
		if fromEvery[i] != fromElide[i] {
			t.Fatalf("round %d at %v, Every at %v", i, fromElide[i], fromEvery[i])
		}
	}
}
