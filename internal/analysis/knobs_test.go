package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// knobTestOnly lists the internal/ config fields that only tests set,
// one reason each. An entry whose field has a shipped writer, or no
// longer exists, is itself a failure, so the table only shrinks.
var knobTestOnly = map[string]string{
	"eval.EmulationConfig.ReportInterval": "reduced-scale tests need rare reports so traffic dominates",
	"edge.Config.GFIBFullPush":            "the full-push baseline behind the gated BenchmarkDissemFull",
	"eval.Fig789Config.Horizon":           "the gated Fig. 7-9 benchmarks replay half a day",
	"eval.Fig789Config.Trace":             "the full-scale Syn-A/B/C sweep replays the synthetic traces",
	"eval.Fig789Config.WarmupScale":       "the full-scale sweep samples its warm-up at Scale 100",
}

// TestNoUnsetKnobs keeps never-turned options from growing back: every
// exported field of an exported *Config / *Options struct under
// internal/ and the root package needs a keyed-literal or assignment
// writer outside withDefaults/validate. A root-package field, the
// library's public surface, may be written anywhere in the module
// (production, benchmark/, examples/, tests); an internal/ field needs
// a writer outside _test.go files, unless knobTestOnly names it. A
// field nobody sets is a constant, and one only tests set is a test
// fixture: name it next to the code that reads it.
//
// Writers are keyed on (struct, field) wherever the syntax names the
// struct: a keyed element of pkg.T{…}, T{…}, &T{…}, or of an elided
// element literal inside []T{…} / map[K]T{…}. An assignment x.F = v, or
// a literal whose type the syntax does not show, counts for every
// struct declaring F — so the test can under-report, never over-report.
func TestNoUnsetKnobs(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	type field struct{ owner, name string } // owner is pkg.Struct; "" = any struct
	var declared []field
	internal := map[field]bool{}
	written := map[field]bool{} // by any file
	shipped := map[field]bool{} // by a non-test file
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if n := d.Name(); d.IsDir() && (n == ".bench_build" || n == "testdata" || n == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		// internal/analysis is exempt: its VetConfig mirrors the vet.cfg
		// JSON that cmd/go writes, so its writer is json.Unmarshal.
		test := strings.HasSuffix(rel, "_test.go")
		declares := !test && !strings.HasPrefix(rel, "internal/analysis/") &&
			(strings.HasPrefix(rel, "internal/") || !strings.Contains(rel, "/"))
		write := func(f field) {
			written[f] = true
			if !test {
				shipped[f] = true
			}
		}
		// Import names → package names (the last path element, which is
		// the package name everywhere in this module).
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				imports[imp.Name.Name] = name
			} else {
				imports[name] = name
			}
		}
		// owner names the struct a literal's type expression denotes,
		// or "" when it is not a plain (qualified) type name.
		owner := func(typ ast.Expr) string {
			switch typ := typ.(type) {
			case *ast.Ident:
				return f.Name.Name + "." + typ.Name
			case *ast.SelectorExpr:
				if pkg, ok := typ.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
					return imports[pkg.Name] + "." + typ.Sel.Name
				}
			}
			return ""
		}
		var literal func(lit *ast.CompositeLit, elided string)
		literal = func(lit *ast.CompositeLit, elided string) {
			own, elem, container := elided, "", false
			switch typ := lit.Type.(type) {
			case nil:
			case *ast.ArrayType:
				elem, container = owner(typ.Elt), true
			case *ast.MapType:
				elem, container = owner(typ.Value), true
			default:
				own = owner(typ)
			}
			for _, el := range lit.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
					if id, ok := kv.Key.(*ast.Ident); ok && !container {
						write(field{own, id.Name})
					}
				}
				if inner, ok := val.(*ast.CompositeLit); ok && inner.Type == nil {
					literal(inner, elem)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return n.Name.Name != "withDefaults" && n.Name.Name != "validate"
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				name := n.Name.Name
				if !ok || !declares || !n.Name.IsExported() ||
					!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					return true
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							fld := field{f.Name.Name + "." + name, id.Name}
							declared = append(declared, fld)
							internal[fld] = strings.HasPrefix(rel, "internal/")
						}
					}
				}
			case *ast.CompositeLit:
				if n.Type != nil { // elided literals are reached through their parent
					literal(n, "")
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						write(field{"", sel.Sel.Name})
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unset, testOnly, stale []string
	exempt := map[string]bool{}
	for _, fld := range declared {
		key := fld.owner + "." + fld.name
		anyWriter := written[fld] || written[field{"", fld.name}]
		shippedWriter := shipped[fld] || shipped[field{"", fld.name}]
		_, ok := knobTestOnly[key]
		switch {
		case !anyWriter:
			unset = append(unset, key)
		case internal[fld] && !shippedWriter && !ok:
			testOnly = append(testOnly, key)
		case ok && !shippedWriter:
			exempt[key] = true
		}
	}
	for key := range knobTestOnly {
		if !exempt[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(unset)
	sort.Strings(testOnly)
	sort.Strings(stale)
	if len(unset) > 0 {
		t.Errorf("%d config fields have no writer outside withDefaults/validate (make each a named constant or delete it):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	if len(testOnly) > 0 {
		t.Errorf("%d internal config fields only tests set (make each a named constant, or exempt it in knobTestOnly with a reason):\n  %s",
			len(testOnly), strings.Join(testOnly, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("%d knobTestOnly entries name a field with a shipped writer, or none (delete them):\n  %s",
			len(stale), strings.Join(stale, "\n  "))
	}
}
