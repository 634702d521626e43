// Package analysis is the repo's static-analysis suite: six custom
// analyzers (determinism, maporder, wireproto, versionstamp,
// stripelock, spanbalance) that turn the invariants the differential
// tests enforce
// at runtime — byte-identical groupings across shard counts,
// faulted-vs-fault-free fixpoint equality, "equal bits ⇒ equal bytes"
// delta channels — into compile-time errors. docs/analysis.md states
// each analyzer's invariant and why it holds the system together.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) but is built on the standard
// library only: this module is dependency-free and the build
// environment is offline, so the x/tools driver stack is reimplemented
// in internal/analysis/load (package loading via `go list -export` and
// the `go vet -vettool` unitchecker protocol) rather than imported.
//
// Findings are suppressed per line with
//
//	//lazyvet:allow <analyzer> <reason>
//
// where the reason is mandatory and unused suppressions are themselves
// reported, so escapes cannot rot (see allow.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lazyvet:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports findings on one package through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test syntax trees. Test files are
	// excluded on purpose: the invariants govern shipped code, and
	// tests exercise nondeterminism (wall-clock deadlines, shuffled
	// inputs) deliberately.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	report    func(Diagnostic)
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the runner
}

// Package is a loaded, type-checked package ready for analysis.
// internal/analysis/load builds these from `go list -export` output,
// from a vet.cfg handed over by `go vet -vettool`, or from testdata
// fixture trees.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run applies the analyzers to one package and returns the surviving
// diagnostics in file/position order: analyzer findings minus the
// //lazyvet:allow-suppressed ones, plus the meta findings of the
// suppression mechanism itself (missing reasons, unused allows).
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
		}
		name := a.Name
		pass.report = func(d Diagnostic) {
			d.Analyzer = name
			raw = append(raw, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis %s: %w", a.Name, err)
		}
	}
	out := applyAllows(pkg.Fset, pkg.Files, raw)
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return out, nil
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		MapOrder,
		WireProto,
		VersionStamp,
		StripeLock,
		SpanBalance,
	}
}
