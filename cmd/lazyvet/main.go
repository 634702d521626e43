// Command lazyvet runs the repo's invariant analyzers (determinism,
// maporder, wireproto, versionstamp, spanbalance — see
// docs/analysis.md) over Go packages. It speaks two protocols:
//
//	go vet -vettool=$(go env GOBIN)/lazyvet ./...   (or any built path)
//
// the cmd/go unitchecker protocol — cmd/go builds each package's
// dependencies, writes a vet.cfg naming the sources and every import's
// export file, and invokes this tool once per package; and
//
//	lazyvet ./...
//
// standalone mode, which resolves patterns and export data itself via
// `go list -export -deps`. Both modes exit nonzero when any analyzer
// reports a finding, so a CI step is just the invocation.
//
// The module is dependency-free, so this is not a golang.org/x/tools
// multichecker; internal/analysis mirrors the go/analysis API shape
// and internal/analysis/load reimplements the loading.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"

	"lazyctrl/internal/analysis"
	"lazyctrl/internal/analysis/load"
)

const progname = "lazyvet"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The cmd/go handshake probes come first and exactly once.
	if len(args) == 1 {
		switch args[0] {
		case "-V=full", "--V=full":
			return printVersion()
		case "-flags", "--flags":
			// No tool-specific flags: every analyzer always runs.
			fmt.Println("[]")
			return 0
		case "help", "-h", "-help", "--help":
			usage()
			return 0
		}
	}

	// Unitchecker mode: the sole argument is a *.cfg path.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runVetCfg(args[0])
	}

	// Standalone mode: package patterns.
	if len(args) == 0 {
		usage()
		return 2
	}
	return runStandalone(args)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: %[1]s package...
       go vet -vettool=$(which %[1]s) package...

%[1]s enforces lazyctrl's determinism, wire-protocol, version-stamp,
map-order, lock-striping, and span-lifecycle invariants. Analyzers:

`, progname)
	for _, a := range analysis.All() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, doc)
	}
	fmt.Fprintf(os.Stderr, `
Suppress a finding with a trailing or preceding-line comment:

  //lazyvet:allow <analyzer> <reason>

The reason is mandatory and unused suppressions are themselves errors.
See docs/analysis.md.
`)
}

// printVersion implements -V=full. cmd/go embeds the whole output
// line in the build-cache key for vet results, so the version string
// must change whenever the tool's behavior does: a content hash of
// the executable is the only honest answer.
func printVersion() int {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = hex.EncodeToString(h.Sum(nil)[:12])
			}
			f.Close()
		}
	}
	fmt.Printf("%s version %s\n", progname, id)
	return 0
}

func runVetCfg(path string) int {
	cfg, pkg, err := load.VetCfg(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	// cmd/go treats the vetx file as the action's output; write it
	// unconditionally (lazyvet exports no facts, so it is empty).
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 1
		}
	}
	// Dependency-only units contribute facts, not findings; lazyvet
	// has no facts, so there is nothing to do.
	if cfg.VetxOnly || pkg == nil {
		return 0
	}
	diags, err := analysis.Run(pkg, analysis.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	printDiags(pkg, diags)
	return 2
}

func runStandalone(patterns []string) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	pkgs, err := load.Patterns(wd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	exit := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analysis.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 1
		}
		if len(diags) > 0 {
			printDiags(pkg, diags)
			exit = 2
		}
	}
	return exit
}

func printDiags(pkg *analysis.Package, diags []analysis.Diagnostic) {
	for _, d := range diags {
		if d.Pos.IsValid() {
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
		} else {
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", pkg.Pkg.Path(), d.Message, d.Analyzer)
		}
	}
}
