package graph

import (
	"fmt"
	"math/rand/v2"
)

// BisectOptions configures the size-constrained balanced bisection used
// by SGI's IncUpdate to re-split a merged group pair.
type BisectOptions struct {
	// MaxSideWeight caps the vertex weight of each side. Zero means
	// ceil(total/2) plus 10% tolerance.
	MaxSideWeight int64
	// Seed drives randomized choices.
	Seed uint64
}

// bisectPasses bounds the FM sweeps of one bisection; a sweep that finds
// no improving prefix ends refinement sooner.
const bisectPasses = 10

// Bisect splits g into two sides minimizing the cut subject to the side
// weight cap, via greedy growing plus Fiduccia–Mattheyses refinement.
func Bisect(g *Graph, o BisectOptions) (Partition, int64, error) {
	n := g.N()
	if n < 2 {
		return nil, 0, fmt.Errorf("graph: Bisect requires ≥ 2 vertices, have %d", n)
	}
	cap := o.MaxSideWeight
	total := g.TotalVertexWeight()
	if cap == 0 {
		half := (total + 1) / 2
		cap = half + half/10 + 1
	}
	if 2*cap < total {
		return nil, 0, fmt.Errorf("graph: infeasible bisection: 2×%d < total %d", cap, total)
	}
	rng := rand.New(rand.NewPCG(o.Seed, o.Seed^0xdeadbeefcafef00d))

	// Greedy growing of side 0 to half the total weight.
	part := growInitial(g, 2, cap, rng)
	fmRefine(g, part, cap, rng)
	if err := repair(g, part, 2, cap); err != nil {
		return nil, 0, err
	}
	return part, g.CutWeight(part), nil
}

// fmRefine performs Fiduccia–Mattheyses-style passes on a bisection: each
// pass tentatively moves every vertex once in best-gain order (allowing
// negative-gain moves to escape local minima), then rolls back to the
// best prefix observed.
func fmRefine(g *Graph, part Partition, cap int64, rng *rand.Rand) {
	n := g.N()
	gain := make([]int64, n)
	locked := make([]bool, n)

	computeGains := func() {
		for v := 0; v < n; v++ {
			var internal, external int64
			for _, e := range g.Adj(v) {
				if part[e.To] == part[v] {
					internal += e.W
				} else {
					external += e.W
				}
			}
			gain[v] = external - internal
		}
	}

	for pass := 0; pass < bisectPasses; pass++ {
		weights := g.PartWeights(part, 2)
		computeGains()
		for i := range locked {
			locked[i] = false
		}

		var (
			moves    []int
			cumGain  int64
			bestGain int64
			bestIdx  = -1 // prefix length-1 of the best state
		)

		for step := 0; step < n; step++ {
			// Select the unlocked vertex with max gain whose move keeps
			// the destination side under cap.
			best := -1
			for v := 0; v < n; v++ {
				if locked[v] {
					continue
				}
				dst := 1 - part[v]
				if weights[dst]+g.VertexWeight(v) > cap {
					continue
				}
				// Keep source side non-empty.
				if weights[part[v]] == g.VertexWeight(v) {
					continue
				}
				if best == -1 || gain[v] > gain[best] || (gain[v] == gain[best] && rng.IntN(2) == 0) {
					best = v
				}
			}
			if best == -1 {
				break
			}
			v := best
			src, dst := part[v], 1-part[v]
			moves = append(moves, v)
			cumGain += gain[v]
			weights[src] -= g.VertexWeight(v)
			weights[dst] += g.VertexWeight(v)
			part[v] = dst
			locked[v] = true
			// Update neighbor gains incrementally.
			gain[v] = -gain[v]
			for _, e := range g.Adj(v) {
				if part[e.To] == dst {
					gain[e.To] -= 2 * e.W
				} else {
					gain[e.To] += 2 * e.W
				}
			}
			if cumGain > bestGain {
				bestGain = cumGain
				bestIdx = len(moves) - 1
			}
		}

		// Roll back moves after the best prefix.
		for i := len(moves) - 1; i > bestIdx; i-- {
			v := moves[i]
			part[v] = 1 - part[v]
		}
		if bestGain <= 0 {
			break
		}
	}
}
