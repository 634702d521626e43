package trace

import (
	"sort"
	"testing"

	"lazyctrl/internal/graph"
	"lazyctrl/internal/model"
)

// TestDebugCutComposition is a calibration diagnostic: it reports which
// flow classes the balanced 5-way partition actually cuts.
func TestDebugCutComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	tr, err := Generate(RealLikeConfig(5000, 1))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[model.FlowKey]int64)
	hostSet := make(map[model.HostID]struct{})
	for i := range tr.Flows {
		f := &tr.Flows[i]
		counts[model.FlowKey{Src: f.Src, Dst: f.Dst}.Canonical()]++
		hostSet[f.Src] = struct{}{}
		hostSet[f.Dst] = struct{}{}
	}
	hosts := make([]model.HostID, 0, len(hostSet))
	for h := range hostSet {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	index := make(map[model.HostID]int, len(hosts))
	for i, h := range hosts {
		index[h] = i
	}
	b := graph.NewBuilder(len(hosts))
	for key, c := range counts {
		b.AddEdge(index[key.Src], index[key.Dst], c)
	}
	g := b.Build()
	even := (g.TotalVertexWeight() + 4) / 5
	part, err := graph.PartitionKWay(g, graph.PartitionOptions{K: 5, MaxPartWeight: even + even/50 + 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Classify pairs: same tenant vs cross tenant; heavy (≥3 flows) vs
	// light.
	var totalW, cutW, crossTenantW, crossTenantCutW, intraTenantW, intraTenantCutW int64
	for key, c := range counts {
		cut := part[index[key.Src]] != part[index[key.Dst]]
		totalW += c
		if cut {
			cutW += c
		}
		sameTenant := tr.Directory.Host(key.Src).Tenant == tr.Directory.Host(key.Dst).Tenant
		if sameTenant {
			intraTenantW += c
			if cut {
				intraTenantCutW += c
			}
		} else {
			crossTenantW += c
			if cut {
				crossTenantCutW += c
			}
		}
	}
	t.Logf("flows=%d active hosts=%d pairs=%d", totalW, len(hosts), len(counts))
	t.Logf("cut share total: %.3f", float64(cutW)/float64(totalW))
	t.Logf("cross-tenant: weight share %.3f, cut within class %.3f",
		float64(crossTenantW)/float64(totalW), float64(crossTenantCutW)/float64(crossTenantW))
	t.Logf("intra-tenant: weight share %.3f, cut within class %.3f",
		float64(intraTenantW)/float64(totalW), float64(intraTenantCutW)/float64(intraTenantW))
	// Per-group centrality and sizes.
	intra := make([]int64, 5)
	touch := make([]int64, 5)
	size := make([]int, 5)
	for _, p := range part {
		size[p]++
	}
	for key, c := range counts {
		pa, pb := part[index[key.Src]], part[index[key.Dst]]
		if pa == pb {
			intra[pa] += c
			touch[pa] += c
		} else {
			touch[pa] += c
			touch[pb] += c
		}
	}
	for p := 0; p < 5; p++ {
		t.Logf("group %d: size=%d intra=%d touch=%d centrality=%.3f",
			p, size[p], intra[p], touch[p], float64(intra[p])/float64(touch[p]))
	}
}
