package grouping

import (
	"math/rand/v2"
	"testing"

	"lazyctrl/internal/model"
)

// benchMatrix builds a community matrix plus a drifted copy, the inputs
// of one IniGroup + IncUpdate cycle.
func benchMatrix(b *testing.B, nGroups, groupSize int) (*Intensity, *Intensity) {
	b.Helper()
	m, _ := communityIntensity(nGroups, groupSize, 17)
	rng := rand.New(rand.NewPCG(23, 29))
	n := nGroups * groupSize
	cur := m.Clone()
	for e := 0; e < n*4; e++ {
		cur.Add(model.SwitchID(1+rng.IntN(n)), model.SwitchID(1+rng.IntN(n)), 30+rng.Float64()*60)
	}
	return m, cur
}

// BenchmarkForEachPair measures a full deterministic scan over a
// read-only matrix (the cached-iteration fast path).
func BenchmarkForEachPair(b *testing.B) {
	m, _ := benchMatrix(b, 10, 20)
	var sink float64
	m.ForEachPair(func(_ model.SwitchPair, w float64) { sink += w }) // prime cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForEachPair(func(_ model.SwitchPair, w float64) { sink += w })
	}
	_ = sink
}
