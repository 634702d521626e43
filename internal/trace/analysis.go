package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
// memory) from unsorted windows: its integer counts and host set do
// not depend on flow order.
func StreamCentrality(s Stream, k int, seed uint64) (float64, error) {
	if k < 2 {
		return 0, errors.New("trace: centrality needs k ≥ 2")
	}
	info := s.Info()
	p := newPairCounter()
	buf := make([]Flow, 0, info.MaxWindowFlows)
	for w := 0; w < info.Windows; w++ {
		buf = s.drawWindow(w, buf[:0])
		p.addWindow(buf)
	}
	return p.centrality(k, seed)
}

// switchPairCounts is the fold behind StreamIntensity and
// SwitchIntensity: it counts the flows of [from, to) per unordered
// switch pair, then adds each pair's count to the matrix in one AddN.
// Every flow adds the same rate to its pair and to the total, so the
// matrix depends on the counts alone, not on the order of the flows.
type switchPairCounts struct {
	m        *grouping.Intensity
	switches []model.SwitchID
	// pos maps a host ID to its switch's position in switches, -1 for
	// an ID the directory does not hold.
	pos      []int32
	from, to time.Duration
	rate     float64
	// counts is a triangle over positions: pair (i, j), i < j, at
	// j(j−1)/2 + i. touched lists each cell a flow took from zero.
	counts  []uint16
	touched []int32
}

// newSwitchPairCounts starts the fold onto a new matrix with every
// switch of dir registered, in order, so that no flow registers one.
// It resolves every host to its switch's position once. A host on a
// switch outside dir.Switches() panics: the directory refuses such a
// placement, and counting it at some other position would corrupt the
// matrix silently.
func newSwitchPairCounts(dir *tenant.Directory, from, to time.Duration) *switchPairCounts {
	switches := dir.Switches()
	m := grouping.NewIntensity()
	var maxID model.HostID
	placed := 0
	for _, sw := range switches {
		m.AddSwitch(sw)
		for _, h := range dir.HostsOn(sw) {
			maxID = max(maxID, h)
			placed++
		}
	}
	if placed != dir.NumHosts() {
		for _, t := range dir.Tenants() {
			for _, h := range t.Hosts {
				if sw := dir.Host(h).Switch; !slices.Contains(switches, sw) {
					panic(fmt.Sprintf("trace: host %v is on switch %v, which the directory does not list", h, sw))
				}
			}
		}
	}
	pos := make([]int32, int(maxID)+1)
	for i := range pos {
		pos[i] = -1
	}
	for p, sw := range switches {
		for _, h := range dir.HostsOn(sw) {
			pos[h] = int32(p)
		}
	}
	n := len(switches)
	return &switchPairCounts{
		m:        m,
		switches: switches,
		pos:      pos,
		from:     from,
		to:       to,
		rate:     1.0 / (to - from).Seconds(),
		counts:   make([]uint16, n*(n-1)/2),
	}
}

// add counts the flows that start in [from, to) between hosts on two
// different switches. An empty span counts none. A count that reaches
// math.MaxUint16 goes to the matrix at once, so no count wraps. That
// changes no bit, since AddN continues from the pair's weight, and it
// lets a pair take 2 bytes: 74 KB of triangle at 272 switches.
func (c *switchPairCounts) add(flows []Flow) {
	for i := range flows {
		f := &flows[i]
		if f.Start < c.from || f.Start >= c.to || int(f.Src) >= len(c.pos) || int(f.Dst) >= len(c.pos) {
			continue
		}
		a, b := c.pos[f.Src], c.pos[f.Dst]
		if a == b || a < 0 || b < 0 {
			continue
		}
		if a > b {
			a, b = b, a
		}
		k := int(b)*int(b-1)/2 + int(a)
		if c.counts[k] == 0 {
			c.touched = append(c.touched, int32(k))
		}
		c.counts[k]++
		if c.counts[k] == math.MaxUint16 {
			c.m.AddN(c.switches[a], c.switches[b], c.rate, math.MaxUint16)
			c.counts[k] = 0
		}
	}
}

// flush adds every counted pair to the matrix, in triangle order, so
// that each neighbor list grows at its end, and returns the matrix. A
// cell listed twice (flushed early, then counted again) holds zero the
// second time.
func (c *switchPairCounts) flush() *grouping.Intensity {
	slices.Sort(c.touched)
	j := 1 // the row of cell k: j(j−1)/2 ≤ k < j(j+1)/2
	for _, k := range c.touched {
		for int(k) >= j*(j+1)/2 {
			j++
		}
		i := int(k) - j*(j-1)/2
		if n := c.counts[k]; n > 0 {
			c.m.AddN(c.switches[i], c.switches[j], c.rate, uint32(n))
			c.counts[k] = 0
		}
	}
	c.touched = c.touched[:0]
	return c.m
}

// SwitchIntensity aggregates the flows in [from, to) into the switch-pair
// intensity matrix W (new flows per second between edge switches), using
// the trace's host placement. Every switch is registered even if idle.
func SwitchIntensity(t *Trace, from, to time.Duration) *grouping.Intensity {
	c := newSwitchPairCounts(t.Directory, from, to)
	c.add(t.Window(from, to))
	return c.flush()
}

// StreamIntensity is SwitchIntensity over a stream: only the windows
// overlapping [from, to) are drawn, one reused buffer deep, so the
// matrix for any span costs O(window) flow memory, plus the pair-count
// triangle (2 bytes per switch pair) — and a warmup span of one hour
// costs one 24th of the generation work, not a whole trace. The windows
// are counted unsorted (see switchPairCounts), and every switch is
// registered first, so the matrix is byte-identical to
// SwitchIntensity(Materialize(s), from, to).
func StreamIntensity(s Stream, from, to time.Duration) *grouping.Intensity {
	info := s.Info()
	c := newSwitchPairCounts(info.Directory, from, to)
	buf := make([]Flow, 0, info.MaxWindowFlows)
	for w := 0; w < info.Windows && to > from; w++ {
		wFrom, wTo := info.WindowBounds(w)
		if wTo <= from {
			continue
		}
		if wFrom >= to {
			break
		}
		buf = s.drawWindow(w, buf[:0])
		c.add(buf)
	}
	return c.flush()
}
