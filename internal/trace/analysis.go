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

// StreamCentrality partitions the hosts of a stream into k balanced
// groups (k-way partitioning of the host traffic graph, as in §II-A)
// and returns the average group centrality: for each group,
// intra-group traffic divided by all traffic touching the group's
// hosts. The pair-weight graph accumulates window by window (O(pairs)
// memory).
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
