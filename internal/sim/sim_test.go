package sim

import (
	"testing"
	"time"
	"unsafe"
)

func TestAfterOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(3*time.Millisecond, func() { got = append(got, 3) })
	s.After(1*time.Millisecond, func() { got = append(got, 1) })
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if s.Now() != Time(3*time.Millisecond) {
		t.Errorf("Now() = %v, want 3ms", s.Now())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(5*time.Millisecond), func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-timestamp order = %v, want ascending", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var fired []string
	s.After(time.Millisecond, func() {
		fired = append(fired, "outer")
		s.After(time.Millisecond, func() {
			fired = append(fired, "inner")
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != "outer" || fired[1] != "inner" {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != Time(2*time.Millisecond) {
		t.Errorf("Now() = %v, want 2ms", s.Now())
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	s := New(1)
	var at Time
	s.After(10*time.Millisecond, func() {
		s.At(Time(time.Millisecond), func() { at = s.Now() })
	})
	s.Run()
	if at != Time(10*time.Millisecond) {
		t.Errorf("past event ran at %v, want 10ms (clamped)", at)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.After(time.Millisecond, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false, want true for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.Run()
	if ran {
		t.Error("canceled timer fired")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", s.Pending())
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := New(1)
	tm := s.After(time.Millisecond, func() {})
	s.Run()
	if tm.Stop() {
		t.Error("Stop() after fire = true, want false")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var count int
	for i := 1; i <= 5; i++ {
		s.After(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(Time(3 * time.Second))
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if s.Now() != Time(3*time.Second) {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
	s.RunUntil(Time(10 * time.Second))
	if count != 5 {
		t.Errorf("count = %d after full run, want 5", count)
	}
	if s.Now() != Time(10*time.Second) {
		t.Errorf("Now() = %v, want 10s (advanced to bound)", s.Now())
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	var count int
	s.Every(time.Second, func() { count++ })
	s.RunFor(10*time.Second + time.Millisecond)
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
}

// TestEveryStop pins Every's stop semantics: a task stopped from its
// own round runs no further round and queues no further event.
func TestEveryStop(t *testing.T) {
	s := New(1)
	var count int
	var tk *Elider
	tk = s.Every(time.Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.RunFor(10 * time.Second)
	if count != 3 {
		t.Errorf("count = %d, want 3 (task stopped)", count)
	}
	if n := s.Executed(); n != 3 {
		t.Errorf("executed %d events, want 3 (no re-arm after Stop)", n)
	}
}

// TestSteadyStateRoundsDoNotAllocate pins that a warmed periodic round
// costs no allocation: an Every round, an Elider real round, and an
// Elider bulk round that credits three folded rounds and runs the
// fourth. Each task re-arms the func it bound at creation.
func TestSteadyStateRoundsDoNotAllocate(t *testing.T) {
	cases := []struct {
		name  string
		start func(s *Simulator, run func())
		span  time.Duration // one round of the task
	}{
		{"Every", func(s *Simulator, run func()) { s.Every(time.Second, run) }, time.Second},
		{"EveryElidable real", func(s *Simulator, run func()) {
			s.EveryElidable(time.Second, run, func() int { return 0 }, func(int) {})
		}, time.Second},
		{"EveryElidable bulk", func(s *Simulator, run func()) {
			s.EveryElidable(time.Second, run, func() int { return 3 }, func(int) {})
		}, 4 * time.Second},
	}
	for _, tc := range cases {
		s := New(1)
		runs := 0
		tc.start(s, func() { runs++ })
		s.RunFor(3 * tc.span)
		if allocs := testing.AllocsPerRun(100, func() { s.RunFor(tc.span) }); allocs != 0 {
			t.Errorf("%s: %.1f allocs per round, want 0", tc.name, allocs)
		}
		if runs != 104 { // three warm rounds, AllocsPerRun's warm-up, 100
			t.Errorf("%s: %d real runs, want 104", tc.name, runs)
		}
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Uint64() != b.Rand().Uint64() {
			t.Fatal("same seed produced different random streams")
		}
	}
	c := New(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.Rand().Uint64() != c.Rand().Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestExecutedCount(t *testing.T) {
	s := New(1)
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Executed() != 7 {
		t.Errorf("Executed() = %d, want 7", s.Executed())
	}
}

func TestNegativeAfterRunsImmediately(t *testing.T) {
	s := New(1)
	ran := false
	s.After(-time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Error("negative-delay event did not run")
	}
	if s.Now() != 0 {
		t.Errorf("Now() = %v, want 0", s.Now())
	}
}

func TestManyEventsHeapStress(t *testing.T) {
	s := New(7)
	const n = 10000
	var last Time = -1
	for i := 0; i < n; i++ {
		d := time.Duration(s.Rand().IntN(1000)) * time.Microsecond
		s.After(d, func() {
			if s.Now() < last {
				t.Fatalf("time went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
		})
	}
	s.Run()
	if s.Executed() != n {
		t.Errorf("Executed() = %d, want %d", s.Executed(), n)
	}
}

// TestEventsAllocatedBySlab pins the event pool's growth: a fresh
// simulator scheduling 4,096 one-shot events allocates one slab per
// eventSlab events and its free list, and a Timer whose slab event was
// recycled for a later schedule reports Stop() == false.
func TestEventsAllocatedBySlab(t *testing.T) {
	const n = 4096
	fn := func() {}
	// AllocsPerRun's warm-up run takes the first simulator. Both heaps
	// are sized up front, so only the events are counted.
	sims := []*Simulator{New(1), New(1)}
	for _, s := range sims {
		s.queue.heap = make([]slot, 0, n)
	}
	s := sims[1]
	timers := make([]Timer, n)
	allocs := testing.AllocsPerRun(1, func() {
		s := sims[0]
		sims = sims[1:]
		for i := range timers {
			timers[i] = s.After(time.Duration(i+1), fn)
		}
	})
	if want := float64(n/eventSlab + 2); allocs > want {
		t.Errorf("scheduling %d events on a fresh simulator allocates %.0f times, want ≤ %.0f", n, allocs, want)
	}

	s.Run()
	later := s.After(time.Second, fn)
	recycled := 0
	for i := range timers {
		if timers[i].ev == later.ev {
			recycled++
		}
		if timers[i].Stop() {
			t.Fatalf("timer %d stopped after its event fired", i)
		}
	}
	if recycled != 1 {
		t.Fatalf("%d fired timers share the new timer's event, want 1", recycled)
	}
	if !later.Stop() {
		t.Error("the timer on the recycled event did not stop")
	}
}

// TestSeriesCostsNoEventSpace pins what a series may not grow: an
// event stays 16 bytes (its state lives in the caller's handle), and
// a steady stream of series allocates nothing once the pool is warm.
// A firing queued before the one that queues it panics rather than
// run out of the order n At calls would give.
func TestSeriesCostsNoEventSpace(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 16 {
		t.Errorf("event is %d bytes, want 16", size)
	}
	s := New(1)
	var (
		sr   Series
		left int
		fire func()
	)
	fire = func() {
		if left--; left > 0 {
			sr.Next(s, s.Now()+Time(time.Microsecond), fire)
		}
	}
	start := func() {
		left = 271
		sr = s.Series(s.Now(), left, fire)
		s.Run()
	}
	if allocs := testing.AllocsPerRun(20, start); allocs != 0 {
		t.Errorf("a 271-firing series allocates %.1f times, want 0", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Error("Next before Now did not panic")
		}
	}()
	s.RunFor(time.Second)
	sr = s.Series(s.Now(), 2, func() {})
	sr.Next(s, s.Now()-1, func() {})
}
