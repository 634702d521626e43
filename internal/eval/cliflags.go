package eval

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lazyctrl/internal/replay"
)

// CLI bundles the emulation flags cmd/experiments and cmd/lazyctrl-sim
// share, beside trace.CLI's trace-selection flags: registration,
// validation, what -engine means, and the dump files live in one place
// so the binaries cannot drift apart.
type CLI struct {
	engine                           replay.Engine // set by Validate
	engineName                       *string
	sampleP, traceSample             *float64
	hostSampling                     *bool
	traceDump, metricsDump, promDump *string
}

// RegisterCLI registers the shared flags on fs (flag.CommandLine when
// nil). Call flag.Parse and then Validate before using the CLI.
func RegisterCLI(fs *flag.FlagSet) *CLI {
	if fs == nil {
		fs = flag.CommandLine
	}
	return &CLI{
		engineName:   fs.String("engine", "des", "replay engine: des, sampled, or fluid (docs/emulation.md)"),
		sampleP:      fs.Float64("p", 0, "pair-sampling probability for the sampled engine / fluid probe (0 = engine default)"),
		hostSampling: fs.Bool("host-sampling", false, "host-level sampling for the sampled engine (q=√p per host; pair kept iff both ends kept)"),
		traceSample:  fs.Float64("trace-sample", 0, "causal-span head-sampling rate in (0,1]; 0 disables tracing (docs/observability.md)"),
		traceDump:    fs.String("trace-dump", "", "write completed spans as JSONL to this file (requires -trace-sample)"),
		metricsDump:  fs.String("metrics-dump", "", "write the telemetry registry as JSONL to this file"),
		promDump:     fs.String("prom-dump", "", "write a Prometheus-style text snapshot of the registry to this file"),
	}
}

// Validate checks the parsed values; an error is a usage error.
func (c *CLI) Validate() (err error) {
	if *c.traceDump != "" && *c.traceSample <= 0 {
		return fmt.Errorf("-trace-dump %s: no spans to write without -trace-sample in (0,1]", *c.traceDump)
	}
	c.engine, err = replay.ParseEngine(*c.engineName)
	return err
}

// Choice checks an enumerated flag value (case-insensitively); the
// usage error names the valid values.
func Choice(flagName, value string, valid ...string) error {
	for _, v := range valid {
		if strings.EqualFold(value, v) {
			return nil
		}
	}
	return fmt.Errorf("-%s %q: want one of %s", flagName, value, strings.Join(valid, ", "))
}

// ExitOnUsage prints the first non-nil error and exits with status 2,
// as the flag package does for a flag it cannot parse.
func ExitOnUsage(errs ...error) {
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
}

// Engine returns the selected replay engine.
func (c *CLI) Engine() replay.Engine { return c.engine }

// Emulation completes one run's config from the flags: per-flow
// reactive rules, as in RunFig789, and the selected engine with
// everything it stands for (setEngine).
func (c *CLI) Emulation(cfg EmulationConfig) EmulationConfig {
	cfg.PerFlowBaseline = true
	cfg.HostSampling, cfg.TraceSample = *c.hostSampling, *c.traceSample
	cfg.setEngine(c.engine, *c.sampleP)
	return cfg
}

// Fig789 completes the five-run sweep's config from the flags.
func (c *CLI) Fig789(cfg Fig789Config) Fig789Config {
	cfg.Engine, cfg.SampleProb = c.engine, *c.sampleP
	cfg.HostSampling, cfg.TraceSample = *c.hostSampling, *c.traceSample
	return cfg
}

// Dumps reports whether any dump file was requested.
func (c *CLI) Dumps() bool { return *c.traceDump != "" || *c.metricsDump != "" || *c.promDump != "" }

// Dump writes the requested dump files from one run's result.
func (c *CLI) Dump(res *EmulationResult) error {
	for _, d := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*c.traceDump, res.Spans.WriteJSONL},
		{*c.metricsDump, res.Metrics.WriteJSONL},
		{*c.promDump, res.Metrics.WriteProm},
	} {
		if d.path == "" {
			continue
		}
		f, err := os.Create(d.path)
		if err == nil {
			err = d.write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", d.path, err)
		}
	}
	return nil
}
