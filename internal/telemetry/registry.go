// Package telemetry is the control plane's observability layer: a
// metrics registry (snapshot-time readers over the owners' counters,
// deterministic sorted snapshots), a causal span tracer driven by the
// sim clock, and a per-node flight recorder that keeps the last few
// protocol events for post-mortem dumps.
//
// Everything here is sim-clock only — constructors take a now func
// fed from the simulator, never the wall clock — and the lazyvet
// determinism analyzer guards the package like the rest of the
// simulated core. All output paths (Snapshot, WriteProm, WriteJSONL,
// span dumps, flight tails) are byte-deterministic for a fixed seed:
// instruments sort by name, spans dump in completion order (the
// single-threaded apply phase makes completion order a run invariant),
// and IDs derive from a seeded splitmix64 sequence, never from global
// randomness. docs/observability.md names the conventions.
package telemetry

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Counter is a monotone event count. The nil handle is a no-op.
// Increments are plain adds — counters are owned by the
// single-threaded sim loop, like every other mutable structure here.
type Counter struct{ v uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Value reads the count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// instrument is one registered metric.
type instrument struct {
	name string
	help string
	fn   func() float64
}

// Registry is the exposition of the run's counters. A counter lives in
// its owner's Stats struct and is registered here as a reader, so the
// hot path never touches the registry. A nil *Registry registers
// nothing and exposes nothing.
type Registry struct {
	ins []instrument // ascending by name
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Func registers a gauge computed at snapshot time: the closure reads
// the owning struct's field when a snapshot is taken, and the run
// itself pays nothing. Names are unique.
func (r *Registry) Func(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	i, dup := slices.BinarySearchFunc(r.ins, name, func(in instrument, name string) int {
		return strings.Compare(in.name, name)
	})
	if dup {
		panic("telemetry: duplicate instrument " + name)
	}
	r.ins = slices.Insert(r.ins, i, instrument{name: name, help: help, fn: fn})
}

// Sample is one instrument's snapshot value.
type Sample struct {
	Name  string
	Value float64
}

// Snapshot returns every instrument's current value sorted by name —
// the deterministic order every exposition format shares.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, len(r.ins))
	for i, in := range r.ins {
		out[i] = Sample{Name: in.name, Value: in.fn()}
	}
	return out
}

// formatValue renders a float deterministically (no exponent drift:
// strconv's shortest form is stable for a given bit pattern).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm writes a Prometheus-style text snapshot: HELP/TYPE pairs
// and one sample line per instrument. In-sim it backs the -metrics
// dump flags.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, in := range r.ins {
		if in.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", in.name, in.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", in.name, in.name, formatValue(in.fn())); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL writes one JSON object per instrument, sorted by name,
// with a fixed key order — byte-identical across same-seed runs.
func (r *Registry) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, in := range r.ins {
		if _, err := fmt.Fprintf(w, "{\"name\":%q,\"kind\":\"gauge\",\"value\":%s}\n", in.name, formatValue(in.fn())); err != nil {
			return err
		}
	}
	return nil
}
