package eval

import (
	"flag"
	"io"
	"strings"
	"testing"

	"lazyctrl/internal/trace"
)

// TestCLIValidate parses each argument list on a fresh flag set and
// checks that Validate rejects out-of-range values, and Parse removed
// flags, as usage errors, before any trace is generated, and accepts
// the in-range ones. The set also carries lazyctrl-sim's -dynamic: a
// row that passes Validate with it set runs RunEmulation on the CLI's
// config, which must refuse it under the fluid engine before running
// anything.
func TestCLIValidate(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // "" = valid
	}{
		{nil, ""},
		{[]string{"-scale", "1", "-engine", "fluid"}, ""},
		{[]string{"-engine", "fluid", "-p", "0.01"}, ""},
		{[]string{"-p", "1"}, ""},
		{[]string{"-trace-sample", "1", "-trace-dump", "spans.jsonl"}, ""},
		{[]string{"-trace-sample", "0"}, ""},
		{[]string{"-scale", "0"}, "-scale 0"},
		{[]string{"-scale", "-5"}, "-scale -5"},
		{[]string{"-p", "2", "-engine", "fluid"}, "-p 2"},
		{[]string{"-p", "-0.5"}, "-p -0.5"},
		{[]string{"-p", "NaN"}, "-p NaN"},
		{[]string{"-trace-sample", "5"}, "-trace-sample 5"},
		{[]string{"-trace-sample", "-1"}, "-trace-sample -1"},
		{[]string{"-trace-dump", "spans.jsonl"}, "-trace-dump spans.jsonl"},
		{[]string{"-engine", "fluidd"}, "fluidd"},
		{[]string{"-engine", "sampled"}, `unknown engine "sampled"`},
		{[]string{"-host-sampling"}, "-host-sampling"},
		{[]string{"-engine", "fluid", "-dynamic"}, "needs the DES engine"},
	} {
		fs := flag.NewFlagSet("cli", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cli := RegisterCLI(fs)
		dynamic := fs.Bool("dynamic", false, "")
		// A flag the set does not define fails in Parse, which the
		// binaries' flag.ExitOnError turns into exit 2 like Validate's.
		err := fs.Parse(tc.args)
		if err == nil {
			err = cli.Validate()
		}
		if err == nil && *dynamic {
			var src trace.Stream
			if src, err = trace.NewStream(trace.SmallConfig("small", 1)); err == nil {
				_, err = RunEmulation(cli.Emulation(EmulationConfig{Source: src, Dynamic: true}))
			}
		}
		if tc.args == nil && (cli.Scale() != 5000 || cli.Seed() != 1) {
			t.Errorf("defaults: scale %d seed %d, want 5000 and 1", cli.Scale(), cli.Seed())
		}
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: Validate = %v, want nil", tc.args, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%q: Validate = nil, want an error naming %q", tc.args, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%q: Validate = %v, want an error naming %q", tc.args, err, tc.wantErr)
		}
	}
}
