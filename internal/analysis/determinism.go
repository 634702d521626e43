package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism flags wall-clock and global-randomness escapes inside
// the simulated subsystems. Every differential invariant of this
// reproduction — byte-identical groupings across shard counts,
// faulted-vs-fault-free fixpoint equality, streamed-vs-materialized
// trace identity — assumes that simulated code observes time only
// through its injected environment (sim clock / netsim.Env) and
// randomness only through explicitly seeded generators. One stray
// time.Now or global rand.IntN silently turns a pinned differential
// test into a flake. The few deliberate wall-clock reads (Fig. 6(b)
// times real computation) carry per-line //lazyvet:allow escapes.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, and argless timer construction " +
		"in simulated subsystems; time and randomness must be injected",
	Run: runDeterminism,
}

// determinismScopes lists the package-path suffixes the analyzer
// guards. Appending to it (tests do, for fixture packages) widens the
// net; production scope is the simulated core plus the eval harness.
var determinismScopes = []string{
	"internal/sim",
	"internal/netsim",
	"internal/fib",
	"internal/bloom",
	"internal/openflow",
	"internal/grouping",
	"internal/edge",
	"internal/controller",
	"internal/replay",
	"internal/chaos",
	"internal/trace",
	"internal/eval",
	"internal/rig",
	"internal/telemetry",
}

// pathInScope reports whether a package path matches a scope suffix.
func pathInScope(path string, scopes []string) bool {
	for _, s := range scopes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// bannedTimeFuncs are the package-level time functions that read the
// wall clock or construct wall-clock timers.
var bannedTimeFuncs = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"After":     "constructs a wall-clock timer",
	"Tick":      "constructs a wall-clock ticker",
	"NewTimer":  "constructs a wall-clock timer",
	"NewTicker": "constructs a wall-clock ticker",
	"AfterFunc": "constructs a wall-clock timer",
}

// allowedRandFuncs are the math/rand constructors that take explicit
// sources or seeds; everything else at package level draws from the
// shared global state.
var allowedRandFuncs = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !pathInScope(pass.Pkg.Path(), determinismScopes) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Package-level functions only: methods (e.g. a
			// sim-injected env's Now()) are exactly the approved
			// alternative.
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if why, bad := bannedTimeFuncs[fn.Name()]; bad {
					pass.Reportf(call.Pos(),
						"time.%s %s; simulated code must take time from its injected environment (sim clock / netsim.Env)",
						fn.Name(), why)
				}
			case "math/rand", "math/rand/v2":
				if !allowedRandFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"%s.%s draws from the shared global generator; use an explicitly seeded *rand.Rand (sim.Simulator.Rand)",
						fn.Pkg().Name(), fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
