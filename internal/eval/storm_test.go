package eval

import (
	"runtime"
	"testing"
	"time"
)

func TestStormDeterministic(t *testing.T) {
	run := func() (pins, floods, mods uint64, out uint64) {
		st, err := NewStorm(StormConfig{Switches: 16, Hosts: 512, Events: 2048, Shards: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		st.Run()
		stats := st.Ctrl.Stats()
		return stats.PacketIns, stats.Floods, stats.FlowModsSent, st.MessagesOut()
	}
	p1, f1, m1, o1 := run()
	p2, f2, m2, o2 := run()
	if p1 != p2 || f1 != f2 || m1 != m2 || o1 != o2 {
		t.Errorf("storm not deterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			p1, f1, m1, o1, p2, f2, m2, o2)
	}
	if p1 != 512+2048 { // warmup + burst
		t.Errorf("PacketIns = %d, want %d", p1, 512+2048)
	}
	if m1 == 0 || o1 == 0 {
		t.Error("storm emitted nothing")
	}
}

// TestStormAllocationsPerPacketIn pins the apply path at a tenth of an
// allocation per PacketIn: an install or a bounce is a block slot, and
// a flood (a few percent of the storm) one object plus its bound
// sendNext.
func TestStormAllocationsPerPacketIn(t *testing.T) {
	st, err := NewStorm(StormConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	perPin := testing.AllocsPerRun(3, st.Run) / float64(len(st.Batch))
	if perPin > 0.1 {
		t.Errorf("%.3f allocations per storm PacketIn, want ≤ 0.1", perPin)
	}
}

func benchmarkStorm(b *testing.B, procs int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	st, err := NewStorm(StormConfig{Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Run()
	}
	b.ReportMetric(float64(len(st.Batch))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkPacketInStormP1 and ...P4 measure the packet-in burst
// intake pinned to one and four cores; the P4/P1 ratio is the scaling
// the parallel decide buys (meaningful only on a machine with ≥4 cores).
// P1 (gated in cmd/bench) watches the controller's apply phase: in a
// -memprofilerate 1 profile of the timed loop, apply's flood (two
// objects per flooded PacketIn, 2 % of the storm) makes 61 % of its
// allocs/op (≈ 600), the install and forward blocks 37 % and
// ProcessBurst's decision slice the rest. Before the posts became
// block slots, one object per post made ≈ 96 % of 8,388.
func BenchmarkPacketInStormP1(b *testing.B) { benchmarkStorm(b, 1) }

// BenchmarkPacketInStormP4 — see BenchmarkPacketInStormP1.
func BenchmarkPacketInStormP4(b *testing.B) { benchmarkStorm(b, 4) }

// TestStormScalesAcrossCores asserts the acceptance target: the burst
// intake at GOMAXPROCS=4 is ≥1.5× faster than at GOMAXPROCS=1. The
// demonstration needs real parallel hardware, so the test skips on
// fewer than four cores and under the race detector (whose serialized
// shadow memory flattens any scaling).
func TestStormScalesAcrossCores(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector serializes the workers")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("NumCPU = %d; scaling demonstration needs ≥4 cores", runtime.NumCPU())
	}
	measure := func(procs int) time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		st, err := NewStorm(StormConfig{Shards: 8, Events: 16384})
		if err != nil {
			t.Fatal(err)
		}
		st.Run() // warm caches and the branch predictor
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			for i := 0; i < 5; i++ {
				st.Run()
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	t1 := measure(1)
	t4 := measure(4)
	ratio := float64(t1) / float64(t4)
	t.Logf("storm: 1 core %v, 4 cores %v, speedup %.2f×", t1, t4, ratio)
	if ratio < 1.5 {
		t.Errorf("speedup %.2f× < 1.5× from GOMAXPROCS=1 to 4", ratio)
	}
}
