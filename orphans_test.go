package liteflow_test

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

// TestNoOrphanExports: every exported func, method, type, const, var and
// struct field declared in a non-test file under internal/ is named somewhere
// else in the module — cmd/, bench/, examples/ and tests all count (a field a
// composite literal sets counts, so a field nothing reads can still pass).
// The check is by name,
// not by object, so two declarations that share a name hide each other's
// orphans: it under-reports and never false-alarms, except for methods that
// exist to satisfy a standard-library interface and are called only from
// there (stdlibCalled).
func TestNoOrphanExports(t *testing.T) {
	stdlibCalled := map[string]bool{"Len": true, "Less": true, "Swap": true}

	declared := map[string][]string{} // name → declaration sites
	decls := map[string]int{}         // name → identifiers that are declarations
	uses := map[string]int{}          // name → identifiers anywhere
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		declare := func(id *ast.Ident) {
			if id.IsExported() {
				declared[id.Name] = append(declared[id.Name], fset.Position(id.Pos()).String())
				decls[id.Name]++
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				declare(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								for _, id := range f.Names {
									declare(id)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for name, sites := range declared {
		if uses[name] == decls[name] && !stdlibCalled[name] {
			orphans = append(orphans, name+" ("+strings.Join(sites, ", ")+")")
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("exported but named nowhere else in the module: %s", o)
	}
}
