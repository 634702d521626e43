package trace

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"lazyctrl/internal/graph"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/tenant"
)

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

// StreamStats characterizes a stream window by window, never holding
// more than one window of flows.
func StreamStats(s Stream) Stats {
	info := s.Info()
	a := NewStatsAccumulator()
	buf := make([]Flow, 0, info.MaxWindowFlows)
	for w := 0; w < info.Windows; w++ {
		buf = s.GenWindow(w, buf[:0])
		a.AddWindow(buf)
	}
	return a.Stats(info.Directory)
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

// pairCounter folds flows into canonical-pair weights and the active
// host set — the shared input of the centrality computations.
type pairCounter struct {
	counts map[model.FlowKey]int64
	hosts  map[model.HostID]struct{}
}

func newPairCounter() *pairCounter {
	return &pairCounter{
		counts: make(map[model.FlowKey]int64),
		hosts:  make(map[model.HostID]struct{}),
	}
}

func (p *pairCounter) addWindow(flows []Flow) {
	for i := range flows {
		f := &flows[i]
		p.counts[model.FlowKey{Src: f.Src, Dst: f.Dst}.Canonical()]++
		p.hosts[f.Src] = struct{}{}
		p.hosts[f.Dst] = struct{}{}
	}
}

// centrality partitions the accumulated host traffic graph into k
// balanced groups and returns the average group centrality.
func (p *pairCounter) centrality(k int, seed uint64) (float64, error) {
	if len(p.hosts) < k {
		return 0, fmt.Errorf("trace: only %d active hosts for k=%d", len(p.hosts), k)
	}
	hosts := make([]model.HostID, 0, len(p.hosts))
	for h := range p.hosts {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	index := make(map[model.HostID]int, len(hosts))
	for i, h := range hosts {
		index[h] = i
	}
	// Iterate pairs in sorted order everywhere below: edge insertion
	// order shapes the builder's adjacency layout (and thus the
	// partitioner's tie-breaking), and float accumulation is not
	// associative, so map-iteration order would change results run to
	// run (TestCentralityStable pins this).
	pairs := make([]model.FlowKey, 0, len(p.counts))
	for key := range p.counts {
		pairs = append(pairs, key)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	b := graph.NewBuilder(len(hosts))
	for _, key := range pairs {
		b.AddEdge(index[key.Src], index[key.Dst], p.counts[key])
	}
	g := b.Build()
	// The paper partitions the hosts "evenly": enforce tight balance
	// (2%) so the partitioner cannot dodge shared-service traffic by
	// skewing group sizes.
	even := (g.TotalVertexWeight() + int64(k) - 1) / int64(k)
	part, err := graph.PartitionKWay(g, graph.PartitionOptions{
		K:             k,
		MaxPartWeight: even + even/50 + 1,
		Seed:          seed,
	})
	if err != nil {
		return 0, fmt.Errorf("trace: centrality partition: %w", err)
	}
	intra := make([]float64, k)
	touch := make([]float64, k)
	for _, key := range pairs {
		pa, pb := part[index[key.Src]], part[index[key.Dst]]
		w := float64(p.counts[key])
		if pa == pb {
			intra[pa] += w
			touch[pa] += w
		} else {
			touch[pa] += w
			touch[pb] += w
		}
	}
	var sum float64
	groups := 0
	for g := 0; g < k; g++ {
		if touch[g] > 0 {
			sum += intra[g] / touch[g]
			groups++
		}
	}
	if groups == 0 {
		return 0, errors.New("trace: no traffic")
	}
	return sum / float64(groups), nil
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

// StreamCentrality is AverageCentrality over a stream: the pair-weight
// graph accumulates window by window (O(pairs) memory), then partitions
// exactly as the materialized path does.
func StreamCentrality(s Stream, k int, seed uint64) (float64, error) {
	if k < 2 {
		return 0, errors.New("trace: centrality needs k ≥ 2")
	}
	info := s.Info()
	p := newPairCounter()
	buf := make([]Flow, 0, info.MaxWindowFlows)
	for w := 0; w < info.Windows; w++ {
		buf = s.GenWindow(w, buf[:0])
		p.addWindow(buf)
	}
	return p.centrality(k, seed)
}

// Profile characterizes a stream completely in a single window sweep:
// pair statistics, k-way average centrality, and the full-span
// switch-intensity matrix. Tools that report all three (cmd/tracegen)
// use it so a full-scale trace is generated once, not three times.
type Profile struct {
	Stats      Stats
	Centrality float64
	Intensity  *grouping.Intensity
}

// StreamProfile runs the one-sweep characterization.
func StreamProfile(s Stream, k int, seed uint64) (Profile, error) {
	info := s.Info()
	a := NewStatsAccumulator()
	p := newPairCounter()
	m := grouping.NewIntensity()
	for _, sw := range info.Directory.Switches() {
		m.AddSwitch(sw)
	}
	perFlow := 0.0
	if secs := info.Duration.Seconds(); secs > 0 {
		perFlow = 1.0 / secs
	}
	buf := make([]Flow, 0, info.MaxWindowFlows)
	for w := 0; w < info.Windows; w++ {
		buf = s.GenWindow(w, buf[:0])
		a.AddWindow(buf)
		p.addWindow(buf)
		intensityFold(m, info.Directory, buf, 0, info.Duration, perFlow)
	}
	prof := Profile{Stats: a.Stats(info.Directory), Intensity: m}
	c, err := p.centrality(k, seed)
	if err != nil {
		// Stats and intensity are still valid (centrality needs ≥ k
		// active hosts; tiny traces legitimately fail it).
		return prof, err
	}
	prof.Centrality = c
	return prof, nil
}

// intensityFold adds one window's flows to the intensity matrix.
func intensityFold(m *grouping.Intensity, dir *tenant.Directory, flows []Flow, from, to time.Duration, perFlow float64) {
	for i := range flows {
		f := &flows[i]
		if f.Start < from || f.Start >= to {
			continue
		}
		src := dir.Host(f.Src)
		dst := dir.Host(f.Dst)
		if src == nil || dst == nil || src.Switch == dst.Switch {
			continue
		}
		m.Add(src.Switch, dst.Switch, perFlow)
	}
}

// SwitchIntensity aggregates the flows in [from, to) into the switch-pair
// intensity matrix W (new flows per second between edge switches), using
// the trace's host placement. Every switch is registered even if idle.
func SwitchIntensity(t *Trace, from, to time.Duration) *grouping.Intensity {
	m := grouping.NewIntensity()
	for _, sw := range t.Directory.Switches() {
		m.AddSwitch(sw)
	}
	seconds := (to - from).Seconds()
	if seconds <= 0 {
		return m
	}
	intensityFold(m, t.Directory, t.Window(from, to), from, to, 1.0/seconds)
	return m
}

// StreamIntensity is SwitchIntensity over a stream: only the windows
// overlapping [from, to) are generated, one reused buffer deep, so the
// matrix for any span costs O(window) flow memory — and a warmup span
// of one hour costs one 24th of the generation work, not a whole
// trace. The accumulation order matches the materialized path flow for
// flow, so the resulting matrix is byte-identical to
// SwitchIntensity(Materialize(s), from, to).
func StreamIntensity(s Stream, from, to time.Duration) *grouping.Intensity {
	info := s.Info()
	m := grouping.NewIntensity()
	for _, sw := range info.Directory.Switches() {
		m.AddSwitch(sw)
	}
	seconds := (to - from).Seconds()
	if seconds <= 0 {
		return m
	}
	perFlow := 1.0 / seconds
	buf := make([]Flow, 0, info.MaxWindowFlows)
	for w := 0; w < info.Windows; w++ {
		wFrom, wTo := info.WindowBounds(w)
		if wTo <= from {
			continue
		}
		if wFrom >= to {
			break
		}
		buf = s.GenWindow(w, buf[:0])
		intensityFold(m, info.Directory, buf, from, to, perFlow)
	}
	return m
}
