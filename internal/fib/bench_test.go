package fib

import (
	"runtime"
	"testing"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/model"
)

// The replay's G-FIB population: 272 switches, every one holding its 45
// group peers' default-geometry filters over 24 hosts each. Each table
// owns its bit arrays, so the working set is the run's 272 × 45 × 2 KB
// ≈ 24 MB — far beyond any cache level, which one warm table is not.
const (
	benchSwitches = 272
	benchPeers    = 45
	benchHosts    = 24
)

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func benchHost(sw, h int) model.MAC { return model.HostMAC(model.HostID(sw*benchHosts + h + 1)) }

// benchTables builds the population; table i holds switches i+1 … i+45
// (mod 272) as its peers.
func benchTables(b *testing.B) []*GFIB {
	b.Helper()
	wire := make([][]byte, benchSwitches)
	for sw := range wire {
		f := bloom.New(DefaultFilterBits, DefaultFilterHashes)
		for h := 0; h < benchHosts; h++ {
			f.AddUint64(MACKey(benchHost(sw, h)))
			f.AddUint64(IPKey(model.HostIP(model.HostID(sw*benchHosts + h + 1))))
		}
		wire[sw], _ = f.MarshalBinary()
	}
	tables := make([]*GFIB, benchSwitches)
	for i := range tables {
		tables[i] = NewGFIB()
		for p := 1; p <= benchPeers; p++ {
			sw := (i + p) % benchSwitches
			if err := tables[i].SetFilterBytes(model.SwitchID(sw+1), wire[sw], 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	return tables
}

// BenchmarkGFIBQuery is the edge slow path's lookup as a run sees it:
// consecutive lookups land on different switches' tables (round-robin
// over all 272), half naming a host of one of the table's peers and
// half a host outside the group, into a reused scratch. One op is 240
// lookups per table. The benchmark/ layer driver's fib.gfib_query_ns is
// the same lookup against one table that stays in cache.
func BenchmarkGFIBQuery(b *testing.B) {
	const perTable = 240
	tables := benchTables(b)
	scratch := make([]model.SwitchID, 0, 8)
	var hits int
	b.ReportAllocs()
	b.ResetTimer()
	allocsBefore := mallocs()
	for i := 0; i < b.N; i++ {
		for q := 0; q < perTable; q++ {
			for t, g := range tables {
				sw := (t + 1 + q%benchPeers) % benchSwitches // a peer of table t
				if q%2 == 1 {
					sw += benchSwitches // nobody's host
				}
				scratch = g.AppendQuery(scratch[:0], benchHost(sw, q%benchHosts))
				if len(scratch) > 0 {
					hits++
				}
			}
		}
	}
	b.StopTimer()
	allocs := mallocs() - allocsBefore
	queries := b.N * perTable * benchSwitches
	if hits < queries/2 {
		b.Fatalf("%d of %d lookups found a candidate, want at least the %d that name a peer's host", hits, queries, queries/2)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries), "ns/query")
	b.ReportMetric(float64(allocs)/float64(queries), "allocs/query")
}

// BenchmarkGFIBWalk is chaos.World.Probe's access pattern: every
// switch's table walked in peer order for (peer, version). One op is
// 100 probe rounds over the population.
func BenchmarkGFIBWalk(b *testing.B) {
	const rounds = 100
	tables := benchTables(b)
	var sum uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N*rounds; i++ {
		for _, g := range tables {
			for j := 0; j < g.Len(); j++ {
				peer, v := g.At(j)
				sum += uint64(peer) + v
			}
		}
	}
	if want := uint64(b.N * rounds * benchSwitches * benchPeers); sum < want {
		b.Fatalf("walk visited fewer than %d peers", want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds*benchSwitches*benchPeers), "ns/peer")
}
