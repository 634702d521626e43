package grouping

import "lazyctrl/internal/model"

// Test-only readers of the intensity matrix: the tests check single
// entries and the pair count; shipped code walks the matrix instead.

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
func (m *Intensity) NumPairs() int { return m.npairs }
