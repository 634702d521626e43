// Package replay implements the scaled emulation engines behind
// eval.RunEmulation, the machinery that makes the paper's full-scale
// traces (§V-B: 271M–5.1B flows) replayable end to end. The full
// discrete-event replay is exact but compute-bound on billions of
// per-flow events; the two engines here trade per-flow fidelity for
// tractable cost under an explicit, testable error model (see
// docs/emulation.md):
//
//   - Sampled replay (EngineSampled): a deterministic hash-sampled
//     subpopulation of host pairs runs through the unmodified DES, and
//     the traffic-driven estimators are reweighted by 1/p
//     (Horvitz–Thompson over pair strata, with per-bucket confidence
//     bands). Pair-level sampling keeps every flow of a kept pair, so
//     flow-table cache dynamics — the thing that determines the
//     controller's PacketIn rate — are exact within the sample.
//
//   - Fluid model (EngineFluid): every flow of the full population is
//     folded into per-(group-pair, bucket) rate aggregates through an
//     analytic cache/warm-up model, so controller and designated-switch
//     load derive from aggregated rates instead of per-flow events; the
//     per-flow DES runs only a sampled latency-probe population.
//
// The package also owns the explicit micro-batching delay model
// (ExpectedBatchDelay): the expected control-link residence time a
// PacketIn spends in the edge switch's batching window, which the
// latency accounting adds so §V-E cold-cache latencies stay correct
// with micro-batching enabled.
package replay

import "fmt"

// Engine selects how eval.RunEmulation turns trace flows into
// controller load and latency estimates.
type Engine uint8

const (
	// EngineDES is the exact engine: every flow becomes discrete
	// events on the simulated underlay.
	EngineDES Engine = iota
	// EngineSampled replays a hash-sampled pair subpopulation through
	// the DES and reweights workload estimators by 1/p.
	EngineSampled
	// EngineFluid aggregates the full population into rate segments
	// for workload and uses the DES only for a latency-probe sample.
	EngineFluid
)

// String names the engine (CLI form).
func (e Engine) String() string {
	switch e {
	case EngineDES:
		return "des"
	case EngineSampled:
		return "sampled"
	case EngineFluid:
		return "fluid"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// ParseEngine maps a CLI name to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "des", "":
		return EngineDES, nil
	case "sampled":
		return EngineSampled, nil
	case "fluid":
		return EngineFluid, nil
	default:
		return EngineDES, fmt.Errorf("replay: unknown engine %q (want des, sampled, or fluid)", s)
	}
}
