package graph

import "errors"

// MinCut computes a global minimum cut of g using the Stoer–Wagner
// algorithm (the paper's reference [29] for the merge/split refinement in
// SGI). It returns the cut weight and the side assignment (true for
// vertices on one side). The graph must have at least 2 vertices.
//
// No production path calls it: Bisect's re-split is size-constrained,
// and on measured IncUpdate inputs the global min cut never met the
// side cap. It stays for the benchmark's graph.mincut_ms driver and
// BenchmarkMinCut.
//
// The maximum adjacency search scans a dense n×n weight matrix, so a call
// costs O(V³) time and O(V²) memory; every buffer is allocated once per
// call.
func MinCut(g *Graph) (int64, []bool, error) {
	n := g.N()
	if n < 2 {
		return 0, nil, errors.New("graph: MinCut requires ≥ 2 vertices")
	}

	// Dense working copy of the adjacency matrix, row-major; merged
	// vertices accumulate edges.
	w := make([]int64, n*n)
	for u := 0; u < n; u++ {
		row := w[u*n : (u+1)*n]
		for _, e := range g.Adj(u) {
			row[e.To] = e.W
		}
	}

	// Super-vertex i holds the original vertices on the chain
	// head[i] → next → … → tail[i]; merging appends a chain, which only
	// ever rewrites the next link of a tail.
	head := make([]int, n)
	tail := make([]int, n)
	next := make([]int, n)
	active := make([]int, n)
	for i := 0; i < n; i++ {
		head[i], tail[i], next[i], active[i] = i, i, -1, i
	}
	outside := make([]int, 0, n) // active vertices not yet added, in active order
	conn := make([]int64, n)

	bestCut := int64(1 << 62)
	bestHead, bestTail := -1, -1

	for len(active) > 1 {
		// Maximum adjacency search from active[0]. Each pass over the
		// vertices outside A folds the last added vertex's edges into conn
		// and picks the next one in the same scan: in active order with a
		// strict >, so the first most-connected vertex wins.
		start := active[0]
		outside = append(outside[:0], active[1:]...)
		for _, v := range outside {
			conn[v] = 0
		}
		s, t := -1, start
		for len(outside) > 0 {
			row := w[t*n : (t+1)*n]
			pick, bestW := -1, int64(-1)
			for i, v := range outside {
				conn[v] += row[v]
				if conn[v] > bestW {
					pick, bestW = i, conn[v]
				}
			}
			s, t = t, outside[pick]
			outside = append(outside[:pick], outside[pick+1:]...)
		}

		// Cut-of-the-phase: the last vertex added, separated from the rest.
		rowT := w[t*n : (t+1)*n]
		cutOfPhase := int64(0)
		for _, v := range active {
			if v != t {
				cutOfPhase += rowT[v]
			}
		}
		if cutOfPhase < bestCut {
			bestCut = cutOfPhase
			bestHead, bestTail = head[t], tail[t]
		}

		// Merge t into s.
		rowS := w[s*n : (s+1)*n]
		for _, v := range active {
			if v != s && v != t {
				rowS[v] += rowT[v]
				w[v*n+s] = rowS[v]
			}
		}
		next[tail[s]] = head[t]
		tail[s] = tail[t]
		// Remove t from active.
		kept := active[:0]
		for _, v := range active {
			if v != t {
				kept = append(kept, v)
			}
		}
		active = kept
	}

	side := make([]bool, n)
	for v := bestHead; v >= 0; v = next[v] {
		side[v] = true
		if v == bestTail {
			break
		}
	}
	return bestCut, side, nil
}
