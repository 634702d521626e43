// Package grouping implements LazyCtrl's switch-grouping machinery: the
// traffic-intensity matrix W, the SGI algorithm (size-constrained
// grouping with incremental update, §III-C of the paper), host exclusion,
// and the Rubinstein-bargaining group-size negotiation from Appendix C.
package grouping

import (
	"math"
	"sort"
	"sync"

	"lazyctrl/internal/model"
)

// decayFloor is the eviction threshold of Decay: entries whose decayed
// weight falls below it are dropped from the matrix and from every
// iteration cache. 1e-12 flows/second is far below one flow per live
// trace window (a 24 h day is ~9e4 s, so the floor corresponds to less
// than one-millionth of a flow per day); keeping such entries would only
// grow the adjacency lists with numerically dead weight that can never
// influence a partition.
const decayFloor = 1e-12

// nbr is one adjacency entry: the dense index of the neighbor switch and
// the accumulated intensity on the edge. Each undirected pair is stored
// in both endpoints' lists with the same weight.
type nbr struct {
	to int32
	w  float64
}

// pairRef locates one undirected pair for cached iteration: the
// canonical (A < B) switch pair plus the position of its adjacency entry
// in adj[ia]. Positions stay valid until an insert or delete reshuffles
// an adjacency list; weight-only updates do not invalidate refs.
type pairRef struct {
	p   model.SwitchPair
	ia  int32
	pos int32
}

// Intensity is the matrix W of the paper: w[i][j] is the normalized
// traffic intensity (new flows per second) between edge switches i and j.
// It is sparse and symmetric, stored as a dense-index adjacency
// structure: switches get compact integer indices in registration order
// and each switch holds a neighbor list sorted by neighbor index, so
// point updates cost O(degree) and full scans cost O(P) without
// re-sorting.
//
// Writers (Add, AddSwitch, Decay) must not run concurrently with anything
// else. Read-side methods are safe for concurrent use: the lazily built
// iteration caches are rebuilt under an internal mutex.
type Intensity struct {
	idx map[model.SwitchID]int32 // switch → dense index
	ids []model.SwitchID         // dense index → switch
	adj [][]nbr                  // per-switch neighbor lists, sorted by index

	total   float64
	maxPair float64
	npairs  int

	// mu guards the lazily (re)built caches below so concurrent readers
	// can share one matrix.
	mu sync.Mutex
	// pairSeq is the deterministic (A,B)-sorted pair iteration order.
	// nil means stale: rebuilt on the next ForEachPair.
	pairSeq []pairRef
	// sorted is the ID-sorted switch list. nil means stale.
	sorted []model.SwitchID
}

// NewIntensity returns an empty intensity matrix.
func NewIntensity() *Intensity {
	return &Intensity{idx: make(map[model.SwitchID]int32)}
}

// index returns the dense index of s, registering it if needed.
func (m *Intensity) index(s model.SwitchID) int32 {
	if i, ok := m.idx[s]; ok {
		return i
	}
	i := int32(len(m.ids))
	m.idx[s] = i
	m.ids = append(m.ids, s)
	m.adj = append(m.adj, nil)
	m.sorted = nil
	return i
}

// findNbr locates to in a list sorted by index.
func findNbr(list []nbr, to int32) (int, bool) {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid].to < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(list) && list[lo].to == to
}

// addHalf accumulates w onto the (ia → ib) adjacency entry and reports
// whether the entry is new.
func (m *Intensity) addHalf(ia, ib int32, w float64) (isNew bool) {
	list := m.adj[ia]
	pos, ok := findNbr(list, ib)
	if ok {
		list[pos].w += w
		if list[pos].w > m.maxPair {
			m.maxPair = list[pos].w
		}
		return false
	}
	list = append(list, nbr{})
	copy(list[pos+1:], list[pos:])
	list[pos] = nbr{to: ib, w: w}
	m.adj[ia] = list
	if w > m.maxPair {
		m.maxPair = w
	}
	return true
}

// AddSwitch registers a switch even if it has no traffic, so that it
// participates in grouping.
func (m *Intensity) AddSwitch(s model.SwitchID) {
	m.index(s)
}

// Add accumulates rate onto the (a,b) pair. Self-pairs and non-positive
// rates register the switches but add no weight.
func (m *Intensity) Add(a, b model.SwitchID, rate float64) {
	ia, ib := m.index(a), m.index(b)
	if a == b || rate <= 0 {
		return
	}
	if m.addHalf(ia, ib, rate) {
		m.addHalf(ib, ia, rate)
		m.npairs++
		m.pairSeq = nil
	} else {
		m.addHalf(ib, ia, rate)
	}
	m.total += rate
}

// Pair returns the intensity between two switches.
func (m *Intensity) Pair(a, b model.SwitchID) float64 {
	if a == b {
		return 0
	}
	ia, ok := m.idx[a]
	if !ok {
		return 0
	}
	ib, ok := m.idx[b]
	if !ok {
		return 0
	}
	if pos, ok := findNbr(m.adj[ia], ib); ok {
		return m.adj[ia][pos].w
	}
	return 0
}

// Total returns the sum of all pairwise intensities.
func (m *Intensity) Total() float64 { return m.total }

// MaxPair returns the largest single pairwise intensity ever observed
// (Decay recomputes it exactly; Add only grows it). It feeds the
// fixed-point weight scaling of the partitioner.
func (m *Intensity) MaxPair() float64 { return m.maxPair }

// NumSwitches returns the number of registered switches.
func (m *Intensity) NumSwitches() int { return len(m.ids) }

// NumPairs returns the number of switch pairs with positive intensity.
func (m *Intensity) NumPairs() int { return m.npairs }

// Switches returns the registered switches in ascending ID order. The
// returned slice is a shared cache: the caller must not modify it.
func (m *Intensity) Switches() []model.SwitchID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sorted == nil {
		m.sorted = append([]model.SwitchID(nil), m.ids...)
		sort.Slice(m.sorted, func(i, j int) bool { return m.sorted[i] < m.sorted[j] })
	}
	return m.sorted
}

// Clone returns a deep copy. The neighbor lists share one arena, each
// clipped to its own length, so a later Add reallocates only the list it
// grows.
func (m *Intensity) Clone() *Intensity {
	c := &Intensity{
		idx:     make(map[model.SwitchID]int32, len(m.idx)),
		ids:     append([]model.SwitchID(nil), m.ids...),
		adj:     make([][]nbr, len(m.adj)),
		total:   m.total,
		maxPair: m.maxPair,
		npairs:  m.npairs,
	}
	for s, i := range m.idx {
		c.idx[s] = i
	}
	size := 0
	for _, list := range m.adj {
		size += len(list)
	}
	arena := make([]nbr, size)
	off := 0
	for i, list := range m.adj {
		if len(list) > 0 {
			end := off + copy(arena[off:], list)
			c.adj[i] = arena[off:end:end]
			off = end
		}
	}
	// The caches are immutable once built; share them.
	m.mu.Lock()
	c.pairSeq = m.pairSeq
	c.sorted = m.sorted
	m.mu.Unlock()
	return c
}

// pairs returns the cached deterministic iteration order, rebuilding it
// if a structural write invalidated it.
func (m *Intensity) pairs() []pairRef {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pairSeq == nil {
		seq := make([]pairRef, 0, m.npairs)
		for ia, list := range m.adj {
			a := m.ids[ia]
			for pos, e := range list {
				if b := m.ids[e.to]; a < b {
					seq = append(seq, pairRef{
						p:   model.SwitchPair{A: a, B: b},
						ia:  int32(ia),
						pos: int32(pos),
					})
				}
			}
		}
		sort.Slice(seq, func(i, j int) bool {
			if seq[i].p.A != seq[j].p.A {
				return seq[i].p.A < seq[j].p.A
			}
			return seq[i].p.B < seq[j].p.B
		})
		m.pairSeq = seq
	}
	return m.pairSeq
}

// ForEachPair calls fn for every pair with positive intensity, in
// deterministic (sorted) order. The order is cached between structural
// changes, so repeated scans over a read-only matrix cost O(P), not
// O(P log P).
func (m *Intensity) ForEachPair(fn func(p model.SwitchPair, w float64)) {
	for _, r := range m.pairs() {
		fn(r.p, m.adj[r.ia][r.pos].w)
	}
}

// ForEachNeighbor calls fn for every switch with positive intensity to s,
// in ascending dense-index (registration) order. O(degree).
func (m *Intensity) ForEachNeighbor(s model.SwitchID, fn func(t model.SwitchID, w float64)) {
	ia, ok := m.idx[s]
	if !ok {
		return
	}
	for _, e := range m.adj[ia] {
		fn(m.ids[e.to], e.w)
	}
}

// InterGroup returns W_inter: the total intensity between switches
// assigned to different groups. Switches without an assignment
// (NoGroup) are treated as handled by the controller, so their traffic
// counts as inter-group.
func (m *Intensity) InterGroup(assign func(model.SwitchID) model.GroupID) float64 {
	var inter float64
	for ia, list := range m.adj {
		ga := assign(m.ids[ia])
		for _, e := range list {
			if e.to < int32(ia) {
				continue // count each undirected pair once
			}
			gb := assign(m.ids[e.to])
			if ga != gb || ga == model.NoGroup {
				inter += e.w
			}
		}
	}
	return inter
}

// NormalizedInterGroup returns W_inter / W_total in [0,1]. Zero total
// yields zero.
func (m *Intensity) NormalizedInterGroup(assign func(model.SwitchID) model.GroupID) float64 {
	if m.total == 0 {
		return 0
	}
	return m.InterGroup(assign) / m.total
}

// Decay multiplies every entry by factor in (0,1), modeling an
// exponentially weighted moving estimate of traffic intensity between
// measurement windows. Entries decayed below the 1e-12 floor are evicted
// from the adjacency lists and from the iteration caches, so a
// decay-then-regroup sequence observes exactly the surviving pairs.
func (m *Intensity) Decay(factor float64) {
	if factor <= 0 || factor >= 1 {
		return
	}
	m.total = 0
	m.maxPair = 0
	m.npairs = 0
	for ia, list := range m.adj {
		keep := list[:0]
		for _, e := range list {
			nw := e.w * factor
			if nw < decayFloor {
				continue
			}
			keep = append(keep, nbr{to: e.to, w: nw})
			if e.to > int32(ia) {
				m.total += nw
				m.npairs++
				if nw > m.maxPair {
					m.maxPair = nw
				}
			}
		}
		// Zero the dropped tail so evicted weights are not resurrected by
		// a later in-place append.
		for i := len(keep); i < len(list); i++ {
			list[i] = nbr{}
		}
		m.adj[ia] = keep
	}
	// Positions shifted: the cached pair order is stale.
	m.mu.Lock()
	m.pairSeq = nil
	m.mu.Unlock()
}

// weightScale converts float intensities to the int64 edge weights the
// graph package needs while preserving relative magnitudes.
func weightScale(maxRate float64) float64 {
	if maxRate <= 0 {
		return 1
	}
	// Map the max rate to ~2^40 to keep headroom under int64 sums.
	return math.Exp2(40) / maxRate
}
