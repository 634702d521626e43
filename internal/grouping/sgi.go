package grouping

import (
	"errors"
	"fmt"
	"slices"

	"lazyctrl/internal/graph"
	"lazyctrl/internal/model"
)

// Config parameterizes the SGI algorithm.
type Config struct {
	// SizeLimit is the maximum number of switches per group (determined
	// empirically or via bargaining, §III-A / Appendix C). Must be ≥ 1.
	SizeLimit int
	// Seed drives all randomized choices.
	Seed uint64
	// HighLoad and LowLoad are the IncUpdate loop thresholds of Fig. 3,
	// expressed as normalized inter-group intensity (W_inter/W_total).
	// IncUpdate iterates while the load exceeds HighLoad and stops once
	// it drops below LowLoad or no merge/split improves the cut.
	// Defaults: 0.10 and 0.08.
	HighLoad float64
	LowLoad  float64
}

func (c Config) withDefaults() (Config, error) {
	if c.SizeLimit < 1 {
		return c, errors.New("grouping: SizeLimit must be ≥ 1")
	}
	if c.HighLoad == 0 {
		c.HighLoad = 0.10
	}
	if c.LowLoad == 0 {
		c.LowLoad = 0.08
	}
	if c.LowLoad > c.HighLoad {
		return c, fmt.Errorf("grouping: LowLoad %v > HighLoad %v", c.LowLoad, c.HighLoad)
	}
	return c, nil
}

// maxIncIterations bounds the merge/split rounds of one IncUpdate call;
// Fig. 3's loop normally ends sooner, on the LowLoad threshold or when
// no pair improves the cut.
const maxIncIterations = 32

// SGI is the Size-constrained Grouping algorithm with Incremental update
// support (Fig. 3 of the paper). It is stateful: IncUpdate compares the
// current intensity matrix against the snapshot taken at the previous
// (re)grouping to find the group pairs whose mutual traffic grew the
// most.
type SGI struct {
	cfg     Config
	prev    *Intensity // snapshot at last IniGroup/IncUpdate
	seed    uint64     // advances so successive calls differ deterministically
	scratch graphScratch
}

// New returns an SGI instance. It returns an error for invalid
// configuration.
func New(cfg Config) (*SGI, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &SGI{cfg: c, seed: c.Seed}, nil
}

// graphScratch holds buildGraph's buffers. An SGI owns one and reuses it
// for IniGroup and every merge/split, so once the buffers have grown to
// the largest switch set a build allocates only the graph header. The
// graph a build returns reads these buffers: it is valid until the next
// build.
type graphScratch struct {
	sub   []int32 // matrix index → vertex; all -1 between builds
	src   []int32 // vertex → matrix index, or -1 for a switch the matrix lacks
	deg   []int
	edges []graph.Edge // arena of the adjacency lists
	adj   [][]graph.Edge
	vwgt  []int64
}

// resize returns buf with length n, reusing its storage when it can.
// The contents are left as they were: the caller writes every element.
func resize[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// buildGraph converts the intensity matrix restricted to the given
// switches into a weighted graph whose vertex j is switches[j]. It walks
// only the adjacency of the requested switches — O(Σ degree), not O(P)
// — in the matrix's dense index space, and assembles the graph directly
// into an edge arena: matrix adjacency has no duplicate neighbors, so
// the Builder's dedup map is unnecessary.
func (sc *graphScratch) buildGraph(m *Intensity, switches []model.SwitchID) *graph.Graph {
	n := len(switches)
	// sub maps a matrix index to its vertex, or -1 outside switches;
	// src maps a vertex back, or -1 for a switch the matrix lacks.
	if have := len(sc.sub); have < len(m.ids) {
		sc.sub = resize(sc.sub, len(m.ids))
		for i := have; i < len(sc.sub); i++ {
			sc.sub[i] = -1
		}
	}
	sub := sc.sub
	src := resize(sc.src, n)
	for j, sw := range switches {
		src[j] = -1
		if i, ok := m.idx[sw]; ok {
			sub[i], src[j] = int32(j), i
		}
	}
	deg := resize(sc.deg, n)
	clear(deg)
	total := 0
	for j, i := range src {
		if i < 0 {
			continue
		}
		for _, e := range m.adj[i] {
			if sub[e.to] >= 0 {
				deg[j]++
				total++
			}
		}
	}
	backing := resize(sc.edges, total)
	adj := resize(sc.adj, n)
	vwgt := resize(sc.vwgt, n)
	off := 0
	for j := range adj {
		adj[j] = backing[off : off : off+deg[j]]
		off += deg[j]
		vwgt[j] = 1
	}
	// Transpose: visiting sources in ascending vertex order appends
	// ascending targets, so every list comes out in the Builder's
	// ascending adjacency order (greedy tie-breaks downstream depend on
	// it) without a sort. Both halves of a pair hold the same weight.
	scale := weightScale(m.MaxPair())
	for j, i := range src {
		if i < 0 {
			continue
		}
		for _, e := range m.adj[i] {
			t := sub[e.to]
			if t < 0 {
				continue
			}
			wi := int64(e.w * scale)
			if wi < 1 {
				wi = 1
			}
			adj[t] = append(adj[t], graph.Edge{To: j, W: wi})
		}
	}
	for _, i := range src {
		if i >= 0 {
			sub[i] = -1
		}
	}
	sc.src, sc.deg, sc.edges, sc.adj, sc.vwgt = src, deg, backing, adj, vwgt
	return graph.NewFromAdjacency(adj, vwgt)
}

// IniGroup computes an initial grouping of the switches in m (the
// IniGroup function of Fig. 3): it estimates the number of groups as
// ⌈N / SizeLimit⌉ and runs size-constrained MLkP on the intensity graph.
func (s *SGI) IniGroup(m *Intensity) (*Grouping, error) {
	switches := m.Switches()
	grp := NewGrouping()
	if len(switches) == 0 {
		s.prev = m.Clone()
		return grp, nil
	}
	k := (len(switches) + s.cfg.SizeLimit - 1) / s.cfg.SizeLimit
	if k < 1 {
		k = 1
	}
	g := s.scratch.buildGraph(m, switches)
	part, err := graph.PartitionKWay(g, graph.PartitionOptions{
		K:             k,
		MaxPartWeight: int64(s.cfg.SizeLimit),
		Seed:          s.nextSeed(),
	})
	if err != nil {
		return nil, fmt.Errorf("grouping: initial partition: %w", err)
	}
	byPart := make([][]model.SwitchID, k)
	for v, p := range part {
		byPart[p] = append(byPart[p], switches[v])
	}
	for _, members := range byPart {
		if len(members) > 0 {
			grp.AddGroup(members)
		}
	}
	s.prev = m.Clone()
	return grp, nil
}

func (s *SGI) nextSeed() uint64 {
	s.seed = s.seed*6364136223846793005 + 1442695040888963407
	return s.seed
}

// groupPairChange describes how much the traffic between two groups grew
// since the last grouping.
type groupPairChange struct {
	a, b    model.GroupID
	current float64
	change  float64
}

// before reports whether c ranks ahead of d for a merge/split: the
// larger traffic growth first, then the larger current traffic, then the
// lower group IDs. Group pairs are distinct, so the order is total.
func (c groupPairChange) before(d groupPairChange) bool {
	if c.change != d.change {
		return c.change > d.change
	}
	if c.current != d.current {
		return c.current > d.current
	}
	if c.a != d.a {
		return c.a < d.a
	}
	return c.b < d.b
}

// mergeSplit merges groups a and b of grp and re-splits the union via
// size-constrained minimum bisection. When the bisection reproduces the
// existing partition (the grouping was already optimal for this pair),
// the grouping is left untouched and changed is false — only structural
// changes count as updates (Fig. 8) and reach the switches. On a change,
// the cut tracker is updated with the delta.
func (s *SGI) mergeSplit(grp *Grouping, cur *Intensity, t *cutTracker, a, b model.GroupID) (changed bool, err error) {
	la := len(grp.Members(a))
	union := make([]model.SwitchID, 0, la+len(grp.Members(b)))
	union = append(union, grp.Members(a)...)
	union = append(union, grp.Members(b)...)
	if len(union) < 2 {
		return false, errors.New("grouping: merge of fewer than 2 switches")
	}
	g := s.scratch.buildGraph(cur, union)
	part, _, err := graph.Bisect(g, graph.BisectOptions{
		MaxSideWeight: int64(s.cfg.SizeLimit),
		Seed:          s.nextSeed(),
	})
	if err != nil {
		return false, fmt.Errorf("grouping: bisect: %w", err)
	}
	if samePartition(part, la) {
		return false, nil
	}
	var side0, side1 []model.SwitchID
	for v, p := range part {
		if p == 0 {
			side0 = append(side0, union[v])
		} else {
			side1 = append(side1, union[v])
		}
	}
	grp.RemoveGroup(a)
	grp.RemoveGroup(b)
	g0 := grp.AddGroup(side0)
	g1 := grp.AddGroup(side1)
	t.regroup(a, b, side0, g0, side1, g1)
	return true, nil
}

// samePartition reports whether a bisection of the union members(a) ++
// members(b), with la ≥ 1 vertices from a, reproduces the existing
// {members(a), members(b)} split in either orientation: the first la
// vertices on one side and every other vertex on the other.
func samePartition(part graph.Partition, la int) bool {
	for v, p := range part {
		if (p == part[0]) != (v < la) {
			return false
		}
	}
	return true
}

// LoadFunc reports the controller's current normalized load for the
// IncUpdate loop. The default (nil) uses W_inter/W_total of the candidate
// grouping, which is the quantity the controller's workload tracks — and
// is maintained incrementally by the cut tracker, so the default costs
// O(1) per check instead of a full matrix rescan.
type LoadFunc func(grp *Grouping, cur *Intensity) float64

// Winter is a convenience wrapper returning the normalized inter-group
// intensity of a grouping under a matrix (the paper's W_inter, expressed
// as a fraction of total intensity).
func Winter(grp *Grouping, m *Intensity) float64 {
	return m.NormalizedInterGroup(grp.GroupOf)
}

// IncUpdate performs the incremental refinement of Fig. 3: while the
// controller is overloaded, merge the two groups with the most
// significant traffic growth and re-split them via minimum bisection.
// It returns the number of merge/split operations applied. cur must
// extend the index space of the matrix grouped last (a later state of
// the same matrix, or a Clone of it): growth is measured against that
// snapshot entry by entry.
func (s *SGI) IncUpdate(grp *Grouping, cur *Intensity, load LoadFunc) (int, error) {
	if s.prev != nil && !isIndexPrefix(s.prev, cur) {
		return 0, errors.New("grouping: IncUpdate: the matrix does not extend the one grouped last")
	}
	t := newCutTracker(grp, cur, s.prev)
	if load == nil {
		load = func(*Grouping, *Intensity) float64 { return t.winter() }
	}
	ops := 0
	for iter := 0; iter < maxIncIterations; iter++ {
		if load(grp, cur) <= s.cfg.HighLoad {
			break
		}
		c, ok := t.bestPair()
		if !ok {
			break
		}
		before := t.winter()
		changed, err := s.mergeSplit(grp, cur, t, c.a, c.b)
		if err != nil {
			return ops, err
		}
		if !changed {
			// The worst pair is already optimally split: further
			// iterations would churn without converging.
			break
		}
		ops++
		if t.winter() >= before {
			break
		}
		if load(grp, cur) < s.cfg.LowLoad {
			break
		}
	}
	if ops > 0 {
		s.prev = cur.Clone()
	}
	return ops, nil
}
