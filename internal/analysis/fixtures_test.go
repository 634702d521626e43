package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lazyctrl/internal/analysis"
	"lazyctrl/internal/analysis/load"
)

// The fixture tests follow the analysistest convention: packages under
// testdata/src/<path> carry `// want `regexp`` comments on the lines
// where an analyzer must report, and every diagnostic must be wanted.
// Fixture package paths end in the production scope suffixes
// (…/internal/sim, …/internal/openflow) so the analyzers' scope tables
// match them without test-only special cases, and fixtures may import
// real production packages (see TestMapOrderFixture's use of
// lazyctrl/internal/openflow), which the loader resolves through
// `go list -export`.

// runFixture loads and analyzes one fixture package.
func runFixture(t *testing.T, pkgPath string, analyzers ...*analysis.Analyzer) (*analysis.Package, []analysis.Diagnostic) {
	t.Helper()
	pkg, err := load.Fixture("../..", "testdata", pkgPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", pkgPath, err)
	}
	diags, err := analysis.Run(pkg, analyzers)
	if err != nil {
		t.Fatalf("run on %s: %v", pkgPath, err)
	}
	return pkg, diags
}

// wantRe extracts the backquoted regexps of a `// want` comment.
var wantRe = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)")

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// parseWants scans the fixture sources for want comments.
func parseWants(t *testing.T, pkgPath string) []*want {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(lineText)
			if m == nil {
				continue
			}
			for _, q := range regexp.MustCompile("`[^`]*`").FindAllString(m[1], -1) {
				re, err := regexp.Compile(q[1 : len(q)-1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
				}
				wants = append(wants, &want{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// checkWants matches diagnostics against want comments 1:1.
func checkWants(t *testing.T, pkg *analysis.Package, pkgPath string, diags []analysis.Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkgPath)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.matched && samePath(w.file, pos.Filename) && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s:%d: %s [%s]", pos.Filename, pos.Line, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func samePath(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	if err1 != nil || err2 != nil {
		return a == b
	}
	return aa == bb
}

func TestDeterminismFixture(t *testing.T) {
	pkg, diags := runFixture(t, "detfix/internal/sim", analysis.Determinism)
	checkWants(t, pkg, "detfix/internal/sim", diags)
}

func TestDeterminismOutOfScope(t *testing.T) {
	// The same wall-clock calls outside the simulated subsystems are
	// fine: the eval CLI's own startup logging may read time freely.
	_, diags := runFixture(t, "detfix/plainpkg", analysis.Determinism)
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package produced %d diagnostics: %v", len(diags), diags)
	}
}

func TestMapOrderFixture(t *testing.T) {
	pkg, diags := runFixture(t, "mofix/internal/trace", analysis.MapOrder)
	checkWants(t, pkg, "mofix/internal/trace", diags)
}

func TestMapOrderNetsimSend(t *testing.T) {
	pkg, diags := runFixture(t, "mofix/internal/netsim", analysis.MapOrder)
	checkWants(t, pkg, "mofix/internal/netsim", diags)
}

func TestWireProtoCodecFixture(t *testing.T) {
	restore := analysis.SwapWireprotoHandlers(map[string]int{
		"TypePacketIn": analysis.HandledByEdge,
		"TypeFlowMod":  analysis.HandledByController,
		// Stale on purpose: no such constant in the fixture codec.
		"TypeGhost": analysis.HandledByController,
	})
	defer restore()
	pkg, diags := runFixture(t, "wpfix/internal/openflow", analysis.WireProto)
	checkWants(t, pkg, "wpfix/internal/openflow", diags)
}

func TestWireProtoApplySwitchFixture(t *testing.T) {
	restore := analysis.SwapWireprotoHandlers(map[string]int{
		"TypePacketIn": analysis.HandledByEdge,
		"TypeFlowMod":  analysis.HandledByEdge,
	})
	defer restore()
	pkg, diags := runFixture(t, "wpfix/internal/edge", analysis.WireProto)
	checkWants(t, pkg, "wpfix/internal/edge", diags)
}

func TestVersionStampFixture(t *testing.T) {
	for _, p := range []string{"vsfix/internal/bloom", "vsfix/internal/fib"} {
		t.Run(p, func(t *testing.T) {
			pkg, diags := runFixture(t, p, analysis.VersionStamp)
			checkWants(t, pkg, p, diags)
		})
	}
}

// TestAllowPolicy pins the suppression contract directly (not via want
// comments, whose own syntax would collide with the malformed allow
// comments under test): an allow without a reason is an error, a bare
// allow is no suppression at all, and an allow that suppresses nothing
// is reported as unused.
func TestAllowPolicy(t *testing.T) {
	pkg, diags := runFixture(t, "allowfix/internal/sim", analysis.Determinism)

	byKind := make(map[string][]string)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		byKind[d.Analyzer] = append(byKind[d.Analyzer], fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line))
	}

	// MissingReason: suppression applies (the analyzer is named) but
	// the absent reason is itself an error.
	if got := byKind["allowreason"]; len(got) != 2 {
		t.Errorf("allowreason diagnostics = %v, want 2 (missing-reason allow and bare allow)", got)
	}
	// Bare allow (no analyzer name): suppresses nothing, so the
	// determinism finding it decorates survives.
	if got := byKind["determinism"]; len(got) != 1 {
		t.Errorf("determinism diagnostics = %v, want exactly the bare-allow line to survive", got)
	}
	if got := byKind["allowunused"]; len(got) != 1 {
		t.Errorf("allowunused diagnostics = %v, want 1", got)
	}

	// And the well-formed suppressions in the determinism fixture
	// already proved the positive path (no findings on allowed lines).
}

func TestSpanBalanceFixture(t *testing.T) {
	pkg, diags := runFixture(t, "sbfix/internal/edge", analysis.SpanBalance)
	checkWants(t, pkg, "sbfix/internal/edge", diags)
}
