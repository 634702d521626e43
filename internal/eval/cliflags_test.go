package eval

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCLIValidate parses each argument list on a fresh flag set and
// checks that Validate rejects out-of-range values as usage errors,
// before any trace is generated, and accepts the in-range ones.
func TestCLIValidate(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // "" = valid
	}{
		{nil, ""},
		{[]string{"-scale", "1", "-engine", "fluid"}, ""},
		{[]string{"-engine", "sampled", "-p", "0.01", "-host-sampling"}, ""},
		{[]string{"-p", "1"}, ""},
		{[]string{"-trace-sample", "1", "-trace-dump", "spans.jsonl"}, ""},
		{[]string{"-trace-sample", "0"}, ""},
		{[]string{"-scale", "0"}, "-scale 0"},
		{[]string{"-scale", "-5"}, "-scale -5"},
		{[]string{"-p", "2", "-engine", "sampled"}, "-p 2"},
		{[]string{"-p", "-0.5"}, "-p -0.5"},
		{[]string{"-p", "NaN"}, "-p NaN"},
		{[]string{"-trace-sample", "5"}, "-trace-sample 5"},
		{[]string{"-trace-sample", "-1"}, "-trace-sample -1"},
		{[]string{"-trace-dump", "spans.jsonl"}, "-trace-dump spans.jsonl"},
		{[]string{"-engine", "fluidd"}, "fluidd"},
	} {
		fs := flag.NewFlagSet("cli", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cli := RegisterCLI(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%q: parse: %v", tc.args, err)
		}
		err := cli.Validate()
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
