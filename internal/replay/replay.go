// Package replay implements the scaled emulation engine behind
// eval.RunEmulation, the machinery that makes the paper's full-scale
// traces (§V-B: 271M–5.1B flows) replayable end to end. The full
// discrete-event replay is exact but compute-bound on billions of
// per-flow events; the fluid model trades per-flow fidelity for
// tractable cost under an explicit, testable error model (see
// docs/emulation.md):
//
//   - Fluid model (EngineFluid): every flow of the full population is
//     folded into per-(group-pair, bucket) rate aggregates through an
//     analytic cache/warm-up model, so controller and designated-switch
//     load derive from aggregated rates instead of per-flow events; the
//     per-flow DES runs only a hash-sampled latency-probe population
//     (PairSampler).
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
	// EngineFluid aggregates the full population into rate segments
	// for workload and uses the DES only for a latency-probe sample.
	EngineFluid
)

// String names the engine (CLI form).
func (e Engine) String() string {
	switch e {
	case EngineDES:
		return "des"
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
	case "fluid":
		return EngineFluid, nil
	default:
		return EngineDES, fmt.Errorf("replay: unknown engine %q (want des or fluid)", s)
	}
}
