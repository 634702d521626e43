package trace

import (
	"fmt"
	"time"
)

// Paper dataset constants (Table II and §V-A/B).
const (
	// RealSwitches and RealHosts describe the production trace topology.
	RealSwitches = 272
	RealHosts    = 6509
	// RealPaperFlows is the flow count of the day-long real trace.
	RealPaperFlows = 271_000_000
	// RealCommunicatingPairs is the number of distinct host pairs that
	// exchanged traffic in the real trace.
	RealCommunicatingPairs = 11_602

	// SynScaleUp is the ×10 scaling factor of the synthetic traces.
	SynScaleUp    = 10
	SynSwitches   = 2713
	SynHosts      = 65090
	SynAFlows     = 2_720_000_000
	SynBFlows     = 3_806_000_000
	SynCFlows     = 5_071_000_000
	SynCommPairs  = RealCommunicatingPairs * SynScaleUp
	TraceDuration = 24 * time.Hour
)

// realTenants approximates 6509 hosts with tenants of 20–100 VMs
// (average 60): ~108 tenants.
const realTenants = 108

// synTenants scales tenancy ×10 with the synthetic topologies.
const synTenants = realTenants * SynScaleUp

// RealLikeConfig synthesizes the paper's production trace from its
// published statistics. Scale divides the flow count (Scale=1 would
// emit 271M flows; tests use 10⁴–10⁶). All flows stay within the ~11.6k
// communicating pairs; the scatter band carries the unclusterable
// cross-group share that yields the measured 5-way centrality of 0.85.
// Pass it to NewStream to consume the trace windowed, or to Generate to
// materialize it.
func RealLikeConfig(scale int, seed uint64) GeneratorConfig {
	return GeneratorConfig{
		Name:                "real",
		Switches:            RealSwitches,
		Tenants:             realTenants,
		MinVMs:              20,
		MaxVMs:              100,
		PaperFlows:          RealPaperFlows,
		Scale:               scale,
		CommunicatingPairs:  RealCommunicatingPairs,
		P:                   97, // the cold pairs of the real trace carry negligible volume
		Q:                   12, // hot = ~10% of the pool, all intra band
		ScatterFlowFraction: 0.11,
		ScatterPinExponent:  0.5,
		DriftAmplitude:      0.25,
		Colocation:          0.97,
		Seed:                seed,
	}
}

// SynAConfig is the Syn-A trace of Table II: p=90, q=10, average
// centrality ≈ 0.85.
func SynAConfig(scale int, seed uint64) GeneratorConfig {
	return synConfig("syn-a", SynAFlows, 90, 10, 0.17, scale, seed)
}

// SynBConfig is the Syn-B trace of Table II: p=70, q=20, average
// centrality ≈ 0.72.
func SynBConfig(scale int, seed uint64) GeneratorConfig {
	return synConfig("syn-b", SynBFlows, 70, 20, 0.38, scale, seed)
}

// SynCConfig is the Syn-C trace of Table II: p=70, q=30, average
// centrality ≈ 0.61.
func SynCConfig(scale int, seed uint64) GeneratorConfig {
	return synConfig("syn-c", SynCFlows, 70, 30, 0.54, scale, seed)
}

// ConfigByName returns the preset generator configuration for a CLI
// trace name: "real", "syn-a", "syn-b", or "syn-c".
func ConfigByName(name string, scale int, seed uint64) (GeneratorConfig, error) {
	switch name {
	case "real":
		return RealLikeConfig(scale, seed), nil
	case "syn-a":
		return SynAConfig(scale, seed), nil
	case "syn-b":
		return SynBConfig(scale, seed), nil
	case "syn-c":
		return SynCConfig(scale, seed), nil
	default:
		return GeneratorConfig{}, fmt.Errorf("trace: unknown trace %q (want real, syn-a, syn-b, or syn-c)", name)
	}
}

func synConfig(name string, flows int64, p, q int, scatterFlow float64, scale int, seed uint64) GeneratorConfig {
	return GeneratorConfig{
		Name:                name,
		Switches:            SynSwitches,
		Tenants:             synTenants,
		MinVMs:              20,
		MaxVMs:              100,
		PaperFlows:          flows,
		Scale:               scale,
		CommunicatingPairs:  SynCommPairs,
		P:                   p,
		Q:                   q,
		ScatterFlowFraction: scatterFlow,
		Colocation:          0.98,
		Seed:                seed,
	}
}

// SmallConfig returns a laptop-scale configuration with the same shape
// as the real trace, for unit tests and examples.
func SmallConfig(name string, seed uint64) GeneratorConfig {
	return GeneratorConfig{
		Name:                name,
		Switches:            24,
		Tenants:             12,
		MinVMs:              8,
		MaxVMs:              24,
		PaperFlows:          40_000,
		Scale:               1,
		CommunicatingPairs:  500,
		P:                   97,
		Q:                   12,
		ScatterFlowFraction: 0.11,
		ScatterPinExponent:  0.5,
		DriftAmplitude:      0.25,
		Colocation:          0.90,
		Seed:                seed,
	}
}
