package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// BenchmarkTimerStopChurn measures the schedule-then-cancel pattern
// (rule idle timeouts, ARP expiry): canceled events must also recycle.
func BenchmarkTimerStopChurn(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.After(time.Second, func() {})
		t.Stop()
		s.RunFor(2 * time.Second)
	}
}

// perEvent reports a benchmark's cost per executed event next to the
// per-op columns (one op is a fixed span of simulated work, so cmd/bench
// can gate its allocs/op at -benchtime 1x).
func perEvent(b *testing.B, events, allocs uint64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(allocs)/float64(events), "allocs/event")
}

// mallocs reports the heap allocations made so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// parkThreads leaves n more idle OS threads in the scheduler, as
// internal/fib's benchmarks do. PeriodicRounds and FloodSeries are
// gated at zero allocs/op, and the timer's own stop-the-world restarts
// the world on an idle thread: when none is parked (cmd/bench runs
// several test binaries at once), the runtime creates one, and its five
// allocations (5,248 B) land in the timed region. Call it before the
// set-up, so the threads have parked by the time the timer starts.
func parkThreads(n int) {
	var locked, release sync.WaitGroup
	locked.Add(n)
	release.Add(1)
	for range n {
		go func() {
			runtime.LockOSThread()
			locked.Done()
			release.Wait()
			runtime.UnlockOSThread()
		}()
	}
	locked.Wait()
	release.Done()
}

// BenchmarkPeriodicRounds is the background-day shape: about 2,000
// tickers over six intervals, started at different phases, with 64
// jittered one-shot chains in flight — a queue about 2,100 deep in
// which two events in three are same-interval re-arms. One op is 100
// simulated seconds in steady state.
func BenchmarkPeriodicRounds(b *testing.B) {
	parkThreads(2 * runtime.GOMAXPROCS(0))
	s := New(1)
	intervals := []time.Duration{200 * time.Millisecond, time.Second, 5 * time.Second,
		10 * time.Second, 30 * time.Second, time.Minute}
	for i := 0; i < 1998; i++ {
		s.At(Time(i)*Time(time.Millisecond), func() { s.Every(intervals[i%len(intervals)], func() {}) })
	}
	for i := 0; i < 64; i++ {
		var hop func()
		hop = func() { s.After(10*time.Millisecond+time.Duration(s.Rand().IntN(90_000))*time.Microsecond, hop) }
		hop()
	}
	s.RunFor(2 * time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	start, m0 := s.Executed(), mallocs()
	for i := 0; i < b.N; i++ {
		s.RunFor(100 * time.Second)
	}
	perEvent(b, s.Executed()-start, mallocs()-m0)
}

// BenchmarkSortedBurst is the replay shape: a window loader schedules
// 56,000 first packets at ascending absolute times through AtSorted,
// then the clock drains them. One op is one burst on a fresh simulator,
// so growing the queue to that depth is part of the cost.
func BenchmarkSortedBurst(b *testing.B) {
	const burst = 56_000
	fn := func() {}
	b.ReportAllocs()
	m0 := mallocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < burst; j++ {
			s.AtSorted(Time(j)*Time(time.Microsecond), fn)
		}
		s.Run()
	}
	perEvent(b, uint64(b.N)*burst, mallocs()-m0)
}

// BenchmarkFloodSeries is the learning flood's shape: every millisecond
// a series of 271 firings 125 µs apart starts, so about 34 overlap, and
// each firing queues the next on its reserved seq. One op is one
// simulated second (1,000 series, 271,000 firings) in steady state.
func BenchmarkFloodSeries(b *testing.B) {
	const copies, service = 271, 125 * time.Microsecond
	parkThreads(2 * runtime.GOMAXPROCS(0))
	type flood struct {
		sr   Series
		left int
		run  func()
	}
	s := New(1)
	floods := make([]flood, 64) // a series lasts 34 ms, a slot is reused after 64
	for i := range floods {
		f := &floods[i]
		f.run = func() {
			if f.left--; f.left > 0 {
				f.sr.Next(s, s.Now()+Time(service), f.run)
			}
		}
	}
	started := 0
	s.Every(time.Millisecond, func() {
		f := &floods[started%len(floods)]
		started++
		f.left = copies
		f.sr = s.Series(s.Now()+Time(service), copies, f.run)
	})
	s.RunFor(100 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	start, m0 := s.Executed(), mallocs()
	for i := 0; i < b.N; i++ {
		s.RunFor(time.Second)
	}
	perEvent(b, s.Executed()-start, mallocs()-m0)
}
