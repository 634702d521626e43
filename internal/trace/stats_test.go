package trace

import (
	"errors"
	"sort"

	"lazyctrl/internal/model"
	"lazyctrl/internal/tenant"
)

// The §II-A trace statistics and the noisy preset: the trace tests
// check the generator against them; shipped code reports centrality
// through StreamCentrality alone.

// Stats summarizes a trace the way §II-A characterizes the real one.
type Stats struct {
	Flows int
	// DistinctPairs is the number of host pairs that exchanged traffic.
	DistinctPairs int
	// PossiblePairs is n·(n-1)/2 over all hosts.
	PossiblePairs int64
	// TopDecileShare is the fraction of flows contributed by the top 10%
	// of communicating pairs.
	TopDecileShare float64
}

// StatsAccumulator folds flows one window at a time into the pair
// statistics behind Stats and TopPairsShare, so a streamed trace is
// characterized in O(distinct pairs) memory — bounded by the
// communicating-pair pool, not the flow count.
type StatsAccumulator struct {
	counts map[model.FlowKey]int
	flows  int
}

// NewStatsAccumulator returns an empty accumulator.
func NewStatsAccumulator() *StatsAccumulator {
	return &StatsAccumulator{counts: make(map[model.FlowKey]int)}
}

// Add folds one flow.
func (a *StatsAccumulator) Add(f Flow) {
	a.counts[model.FlowKey{Src: f.Src, Dst: f.Dst}.Canonical()]++
	a.flows++
}

// AddWindow folds a whole window.
func (a *StatsAccumulator) AddWindow(flows []Flow) {
	for i := range flows {
		a.Add(flows[i])
	}
}

// Flows returns the number of flows folded so far.
func (a *StatsAccumulator) Flows() int { return a.flows }

// pairCountsDescending returns the per-pair flow counts, largest first.
func (a *StatsAccumulator) pairCountsDescending() []int {
	perPair := make([]int, 0, len(a.counts))
	for _, c := range a.counts {
		perPair = append(perPair, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(perPair)))
	return perPair
}

// TopShare returns the fraction of flows carried by the n busiest host
// pairs.
func (a *StatsAccumulator) TopShare(n int) float64 {
	if a.flows == 0 {
		return 0
	}
	perPair := a.pairCountsDescending()
	if n > len(perPair) {
		n = len(perPair)
	}
	sum := 0
	for i := 0; i < n; i++ {
		sum += perPair[i]
	}
	return float64(sum) / float64(a.flows)
}

// Stats finalizes the accumulated statistics against a topology.
func (a *StatsAccumulator) Stats(dir *tenant.Directory) Stats {
	top := len(a.counts) / 10
	if top < 1 && len(a.counts) > 0 {
		top = 1
	}
	n := int64(dir.NumHosts())
	return Stats{
		Flows:          a.flows,
		DistinctPairs:  len(a.counts),
		PossiblePairs:  n * (n - 1) / 2,
		TopDecileShare: a.TopShare(top),
	}
}

// ComputeStats scans a materialized trace.
func ComputeStats(t *Trace) Stats {
	a := NewStatsAccumulator()
	a.AddWindow(t.Flows)
	return a.Stats(t.Directory)
}

// TopPairsShare returns the fraction of flows carried by the n busiest
// host pairs. Use n = 10% of the communicating-pair pool to check the
// paper's skew statistic independently of trace scale (at reduced scale
// the cold pairs under-sample, so a realized-pair decile understates the
// skew).
func TopPairsShare(t *Trace, n int) float64 {
	a := NewStatsAccumulator()
	a.AddWindow(t.Flows)
	return a.TopShare(n)
}

// AverageCentrality partitions the hosts into k balanced groups
// (k-way partitioning of the host traffic graph, as in §II-A) and
// returns the average group centrality: for each group, intra-group
// traffic divided by all traffic touching the group's hosts.
func AverageCentrality(t *Trace, k int, seed uint64) (float64, error) {
	if k < 2 {
		return 0, errors.New("trace: centrality needs k ≥ 2")
	}
	p := newPairCounter()
	p.addWindow(t.Flows)
	return p.centrality(k, seed)
}
