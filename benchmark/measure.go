package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// cost is what one iteration took from the host.
type cost struct {
	wall     time.Duration
	mallocs  uint64
	bytes    uint64
	liveHeap uint64 // max of /gc/heap/live:bytes seen during the iteration
}

// heapSampleEvery is how often the live heap is read during an iteration.
const heapSampleEvery = 10 * time.Millisecond

// measure runs fn once between two collections and reports its cost. The
// live heap is sampled from a second goroutine, which is the one thread a
// single-threaded workload leaves free.
func measure(fn func() error) (cost, error) {
	runtime.GC()
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, sample[0].Value.Uint64())
			}
		}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
			case <-stop:
				read()
				done <- peak
				return
			}
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	close(stop)
	return cost{
		wall:     wall,
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		liveHeap: <-done,
	}, err
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance rule for this benchmark is written in. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// quantile returns the q-quantile of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
