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

// TestNoUnsetKnobs keeps never-turned options from growing back: every
// exported field of an exported *Config / *Options struct under
// internal/ and the root package needs at least one keyed-literal or
// assignment writer somewhere in the module (production, benchmark/,
// examples/, tests) outside withDefaults/validate. A field nobody sets
// is a constant: name it next to the code that reads it. Matching is by
// field name only, so it can under-report, never over-report.
func TestNoUnsetKnobs(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	fields := map[string][]string{} // field name → declaring pkg.Struct.Field
	written := map[string]bool{}
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
		declares := !strings.HasSuffix(rel, "_test.go") && !strings.HasPrefix(rel, "internal/analysis/") &&
			(strings.HasPrefix(rel, "internal/") || !strings.Contains(rel, "/"))
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
							fields[id.Name] = append(fields[id.Name], f.Name.Name+"."+name+"."+id.Name)
						}
					}
				}
			case *ast.KeyValueExpr: // keyed composite-literal element
				if id, ok := n.Key.(*ast.Ident); ok {
					written[id.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel.Sel.Name] = true
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
	var unset []string
	for name, owners := range fields {
		if !written[name] {
			unset = append(unset, owners...)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d config fields have no writer outside withDefaults/validate (make each a named constant or delete it):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
}
