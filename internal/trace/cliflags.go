package trace

import (
	"flag"
	"fmt"
	"os"
)

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

// CLI bundles the trace-selection flags the cmd mains share (-trace,
// -scale, -seed), so flag registration, trace generation, and error
// handling live in one place and the binaries cannot drift apart.
type CLI struct {
	name  *string
	scale *int
	seed  *uint64
}

// RegisterCLI registers the shared flags on fs (flag.CommandLine when
// nil) with the given defaults. Call flag.Parse (or fs.Parse) before
// using the returned CLI.
func RegisterCLI(fs *flag.FlagSet, defaultTrace string, defaultScale int) *CLI {
	if fs == nil {
		fs = flag.CommandLine
	}
	return &CLI{
		name:  fs.String("trace", defaultTrace, "trace to generate: real, syn-a, syn-b, syn-c"),
		scale: fs.Int("scale", defaultScale, "divisor applied to the paper's flow count"),
		seed:  fs.Uint64("seed", 1, "random seed"),
	}
}

// MustStream builds the selected trace's stream (lazy, windowed flows),
// printing the error to stderr and exiting non-zero on failure (exit 2
// for an unknown trace name, matching flag-usage errors; 1 for
// generation failures).
func (c *CLI) MustStream() Stream {
	cfg, err := ConfigByName(*c.name, *c.scale, *c.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s, err := NewStream(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return s
}

// Seed returns the selected random seed.
func (c *CLI) Seed() uint64 { return *c.seed }
