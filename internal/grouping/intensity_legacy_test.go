package grouping

// The legacy map-of-pairs Intensity implementation, retained as a
// test-only reference: TestIndexedMatchesLegacyObservables checks the
// indexed adjacency implementation against it operation for operation.

import (
	"sort"

	"lazyctrl/internal/model"
)

type legacyIntensity struct {
	pairs    map[model.SwitchPair]float64
	switches map[model.SwitchID]struct{}
	total    float64
}

func newLegacyIntensity() *legacyIntensity {
	return &legacyIntensity{
		pairs:    make(map[model.SwitchPair]float64),
		switches: make(map[model.SwitchID]struct{}),
	}
}

func (m *legacyIntensity) Add(a, b model.SwitchID, rate float64) {
	m.switches[a] = struct{}{}
	m.switches[b] = struct{}{}
	if a == b || rate <= 0 {
		return
	}
	m.pairs[model.MakeSwitchPair(a, b)] += rate
	m.total += rate
}

func (m *legacyIntensity) Total() float64 { return m.total }

func (m *legacyIntensity) NumPairs() int { return len(m.pairs) }

func (m *legacyIntensity) MaxPair() float64 {
	var maxRate float64
	for _, w := range m.pairs {
		if w > maxRate {
			maxRate = w
		}
	}
	return maxRate
}

func (m *legacyIntensity) Switches() []model.SwitchID {
	out := make([]model.SwitchID, 0, len(m.switches))
	for s := range m.switches {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *legacyIntensity) ForEachPair(fn func(p model.SwitchPair, w float64)) {
	keys := make([]model.SwitchPair, 0, len(m.pairs))
	for p := range m.pairs {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	for _, p := range keys {
		fn(p, m.pairs[p])
	}
}

func (m *legacyIntensity) InterGroup(assign func(model.SwitchID) model.GroupID) float64 {
	var inter float64
	m.ForEachPair(func(p model.SwitchPair, w float64) {
		ga, gb := assign(p.A), assign(p.B)
		if ga != gb || ga == model.NoGroup {
			inter += w
		}
	})
	return inter
}

func (m *legacyIntensity) Decay(factor float64) {
	if factor <= 0 || factor >= 1 {
		return
	}
	m.total = 0
	for p, w := range m.pairs {
		nw := w * factor
		if nw < decayFloor {
			delete(m.pairs, p)
			continue
		}
		m.pairs[p] = nw
		m.total += nw
	}
}
