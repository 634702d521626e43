package sim

import (
	"runtime"
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

// BenchmarkPeriodicRounds is the background-day shape: about 2,000
// tickers over six intervals, started at different phases, with 64
// jittered one-shot chains in flight — a queue about 2,100 deep in
// which two events in three are same-interval re-arms. One op is 100
// simulated seconds in steady state.
func BenchmarkPeriodicRounds(b *testing.B) {
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
