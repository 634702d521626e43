package grouping

import (
	"cmp"
	"slices"

	"lazyctrl/internal/model"
)

// Test-only readers of the intensity matrix: the tests check single
// entries, the pair count and the pair list; shipped code walks the
// matrix instead.

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

// NumPairs returns the number of switch pairs with positive intensity.
func (m *Intensity) NumPairs() int {
	n := 0
	for _, list := range m.adj {
		n += len(list)
	}
	return n / 2
}

// weightedPair is one positive entry of a matrix.
type weightedPair struct {
	p model.SwitchPair
	w float64
}

// pairList returns every positive pair of m in (A,B) order.
func (m *Intensity) pairList() []weightedPair {
	var out []weightedPair
	for ia, list := range m.adj {
		for _, e := range list {
			if a, b := m.ids[ia], m.ids[e.to]; a < b {
				out = append(out, weightedPair{model.SwitchPair{A: a, B: b}, e.w})
			}
		}
	}
	slices.SortFunc(out, func(x, y weightedPair) int {
		return cmp.Or(cmp.Compare(x.p.A, y.p.A), cmp.Compare(x.p.B, y.p.B))
	})
	return out
}
