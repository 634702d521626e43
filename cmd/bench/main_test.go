package main

import (
	"strings"
	"testing"
)

// TestBytesPerOpGate checks that the grouping benchmarks' B/op is gated
// against the baseline like allocs/op: within -maxregress it passes,
// past it it is a violation, and only under -gatemetrics allocs.
func TestBytesPerOpGate(t *testing.T) {
	report := func(fig6b, inc int64) *Report {
		return &Report{Benchmarks: []Result{
			{Name: "BenchmarkFig6b", NsPerOp: 1, BytesPerOp: fig6b, AllocsPerOp: 10},
			{Name: "BenchmarkIncUpdate", NsPerOp: 1, BytesPerOp: inc, AllocsPerOp: 10},
		}}
	}
	const gate = "BenchmarkFig6b,BenchmarkIncUpdate"
	for _, tc := range []struct {
		name       string
		fig6b, inc int64
		metrics    string
		want       []string
	}{
		{"level", 1000, 100, "allocs", nil},
		{"within the bound", 1090, 109, "allocs", nil},
		{"Fig6b past the bound", 1200, 100, "allocs", []string{"BenchmarkFig6b: B/op 1000 -> 1200"}},
		{"IncUpdate past the bound", 1000, 111, "allocs", []string{"BenchmarkIncUpdate: B/op 100 -> 111"}},
		{"not gated under ns only", 2000, 200, "ns", nil},
		{"missing from the run", 0, 100, "allocs", []string{`BenchmarkFig6b: extra metric "B/op" missing`}},
	} {
		r := report(tc.fig6b, tc.inc)
		r.Baseline = report(1000, 100)
		got := gateAgainstBaseline(r, gate, tc.metrics, 0.10, true)
		if len(got) != len(tc.want) {
			t.Errorf("%s: violations %q, want %q", tc.name, got, tc.want)
			continue
		}
		for i, v := range got {
			if !strings.HasPrefix(v, tc.want[i]) {
				t.Errorf("%s: violation %q, want prefix %q", tc.name, v, tc.want[i])
			}
		}
	}
}
