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
// examples/quickstart, tests) outside withDefaults/validate. A field
// nobody sets is a constant: name it next to the code that reads it.
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
	written := map[field]bool{}
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
						written[field{own, id.Name}] = true
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
							declared = append(declared, field{f.Name.Name + "." + name, id.Name})
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
						written[field{"", sel.Sel.Name}] = true
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
	for _, fld := range declared {
		if !written[fld] && !written[field{"", fld.name}] {
			unset = append(unset, fld.owner+"."+fld.name)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d config fields have no writer outside withDefaults/validate (make each a named constant or delete it):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
}
