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

// TestNoWriteOnlyFields: every named field of a struct declared in a non-test
// file under internal/ is read in some non-test file of the module, bench/
// included. A read is a selector that is not the target of an assignment
// (=, :=, op=) or of ++/--, so a call through a func-typed field and &x.f
// both count; a composite literal key is a write. x.f += n counts as a write
// because, like x.f++, it feeds only x.f. Like TestNoOrphanExports the check
// is by name, so it under-reports. writeOnly lists the fields kept anyway,
// each with its reason; an entry that is read, or gone, fails too.
func TestNoWriteOnlyFields(t *testing.T) {
	writeOnly := map[string]string{
		"netsim.Switch.unrouted": "counts packets with no route; tests assert it to prove a misroute did or did not happen",
		"tcp.Host.RxDropped":     "counts segments for no endpoint; tests assert it to prove a drop did or did not happen",
		"tcp.Host.TxDropped":     "counts segments the NIC refused; tests assert it to prove a drop did or did not happen",
		"tcp.Receiver.DupAcks":   "counts duplicate ACKs sent; tests assert it to prove reordering or loss was seen",
	}

	declared := map[string][]string{} // field name → "pkg.Type.field" sites
	read := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := s.X.(*ast.SelectorExpr); ok {
					written[sel] = true
				}
			case *ast.SelectorExpr:
				if !written[s] {
					read[s.Sel.Name] = true
				}
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			ast.Inspect(ts.Type, func(n ast.Node) bool {
				if st, ok := n.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							site := f.Name.Name + "." + ts.Name.Name + "." + id.Name
							declared[id.Name] = append(declared[id.Name], site)
						}
					}
				}
				return true
			})
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	seen := map[string]bool{}
	for name, sites := range declared {
		for _, site := range sites {
			seen[site] = true
			if _, ok := writeOnly[site]; !ok && !read[name] {
				bad = append(bad, "written but never read: "+site)
			} else if ok && read[name] {
				bad = append(bad, "allow-listed but read: "+site)
			}
		}
	}
	for site := range writeOnly {
		if !seen[site] {
			bad = append(bad, "allow-listed but gone: "+site)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}
