package liteflow_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The census tests below read one go/types load of the whole module, built
// once per test binary (newCensus). They key what they find by object, so two
// declarations that share a name never hide each other, methods included:
// TestNoOrphanExports counts a method as used when non-test code names it or
// calls it through an interface its receiver type, or a type that promotes
// it by embedding, satisfies (types.Implements), and only non-test code
// counts. Its one exception list
// is .github/census-allow.txt. DESIGN.md §4 round (t) says what each test
// catches.

// censusPkg is one checked package and the files a census walks in it.
type censusPkg struct {
	rel   string // module-relative directory, "." for the root
	files []*ast.File
	info  *types.Info
}

type census struct {
	fset *token.FileSet
	root string // module root directory
	pkgs []*censusPkg
	// stdIfaces are the standard-library interfaces a type satisfies to be
	// called from the standard library: error, fmt.Stringer, sort.Interface
	// and http.Handler.
	stdIfaces []types.Type
}

var (
	censusOnce sync.Once
	censusLoad *census
	censusErr  error
)

// loadCensus returns the module's load, built once per test binary.
func loadCensus(t *testing.T) *census {
	t.Helper()
	censusOnce.Do(func() { censusLoad, censusErr = newCensus() })
	if censusErr != nil {
		t.Fatal(censusErr)
	}
	return censusLoad
}

// listed is the part of `go list -json` the load reads.
type listed struct {
	Dir, ImportPath                    string
	Standard                           bool
	Module                             *struct{ Path string }
	GoFiles, TestGoFiles, XTestGoFiles []string
	Imports, TestImports, XTestImports []string
}

func newCensus() (*census, error) {
	out, err := exec.Command("go", "list", "-e", "-json", "-deps", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var all []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		all = append(all, p)
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	c := &census{fset: token.NewFileSet(), root: root}
	mod := map[string]*listed{}
	var order []string
	for i := range all {
		if p := &all[i]; !p.Standard && p.Module != nil {
			mod[p.ImportPath] = p
			order = append(order, p.ImportPath)
		}
	}
	// One `go list -export` for every standard package the module imports,
	// and the ones that declare stdIfaces, so the gc importer reads
	// export data without a go command per import.
	stdSet := map[string]bool{"fmt": true, "sort": true, "net/http": true}
	for _, p := range mod {
		for _, q := range append(append(append([]string{}, p.Imports...), p.TestImports...), p.XTestImports...) {
			if mod[q] == nil && q != "unsafe" && q != "C" {
				stdSet[q] = true
			}
		}
	}
	var std []string
	for q := range stdSet {
		std = append(std, q)
	}
	sort.Strings(std)
	out, err = exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, std...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			export[path] = file
		}
	}
	stdImp := importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := export[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	c.stdIfaces = []types.Type{types.Universe.Lookup("error").Type()}
	for _, name := range []string{"fmt.Stringer", "sort.Interface", "net/http.Handler"} {
		i := strings.LastIndex(name, ".")
		pkg, err := stdImp.Import(name[:i])
		if err != nil {
			return nil, err
		}
		c.stdIfaces = append(c.stdIfaces, pkg.Scope().Lookup(name[i+1:]).Type())
	}
	checked := map[string]*types.Package{}

	// Two passes, as the go command builds them. First each package's own
	// files, in -deps order. Then each package again with its in-package
	// test files, and its external test package: both import the first
	// pass's packages, except that the external test package imports the
	// package it tests with that package's test files (export_test.go). The
	// second pass's packages list only their test files, so a walk over
	// every package's files meets each file once, and every non-test file
	// with its first-pass info.
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	// self, when set, is what an external test package imports for the
	// package it tests: that package with its in-package test files.
	check := func(p *listed, path string, files, own []*ast.File, self *types.Package) (*types.Package, error) {
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			return nil, err
		}
		cp := &censusPkg{rel: filepath.ToSlash(rel), files: own}
		cp.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if self != nil && path == self.Path() {
				return self, nil
			}
			if p := checked[path]; p != nil {
				return p, nil
			}
			return stdImp.Import(path)
		})}
		tp, err := conf.Check(path, c.fset, files, cp.info)
		if err != nil {
			return nil, err
		}
		c.pkgs = append(c.pkgs, cp)
		return tp, nil
	}
	nonTest := map[string][]*ast.File{}
	for _, path := range order {
		p := mod[path]
		files, err := parse(p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		nonTest[path] = files
		if checked[path], err = check(p, path, files, files, nil); err != nil {
			return nil, err
		}
	}
	for _, path := range order {
		p := mod[path]
		self := checked[path]
		for _, test := range []struct {
			names []string
			path  string
			own   bool
		}{{p.TestGoFiles, path, false}, {p.XTestGoFiles, path + "_test", true}} {
			if len(test.names) == 0 {
				continue
			}
			files, err := parse(p.Dir, test.names)
			if err != nil {
				return nil, err
			}
			all := files
			if !test.own {
				all = append(append([]*ast.File{}, nonTest[path]...), files...)
			}
			tp, err := check(p, test.path, all, files, self)
			if err != nil {
				return nil, err
			}
			self = tp
		}
	}
	return c, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// position renders pos as file:line:column, the file relative to the module
// root.
func (c *census) position(pos token.Pos) string {
	p := c.fset.Position(pos)
	if rel, err := filepath.Rel(c.root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return p.String()
}

// isTest reports whether f is a _test.go file.
func (c *census) isTest(f *ast.File) bool {
	return strings.HasSuffix(c.fset.File(f.Pos()).Name(), "_test.go")
}

// structDecl is one field of a struct type declared in a non-test file
// under internal/, with its "pkg.Type.field" name.
type structDecl struct {
	site  string
	typ   string // the declared type's name
	field *types.Var
	tag   string
}

// internalFields lists the fields of every struct type declared in a
// non-test file under internal/, nested struct types included.
func (c *census) internalFields() []structDecl {
	var out []structDecl
	for _, p := range c.pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for _, f := range p.files {
			if c.isTest(f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				ast.Inspect(ts.Type, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, fld := range st.Fields.List {
						tag := ""
						if fld.Tag != nil {
							tag = fld.Tag.Value
						}
						ids := fld.Names
						if len(ids) == 0 {
							ids = []*ast.Ident{embeddedIdent(fld.Type)}
						}
						for _, id := range ids {
							v, _ := p.info.Defs[id].(*types.Var)
							if v == nil {
								continue
							}
							out = append(out, structDecl{
								site:  f.Name.Name + "." + ts.Name.Name + "." + id.Name,
								typ:   ts.Name.Name,
								field: v,
								tag:   tag,
							})
						}
					}
					return true
				})
				return true
			})
		}
	}
	return out
}

// embeddedIdent returns the identifier that names an embedded field: T in
// T, *T, pkg.T and T[A].
func embeddedIdent(x ast.Expr) *ast.Ident {
	switch e := x.(type) {
	case *ast.StarExpr:
		return embeddedIdent(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return embeddedIdent(e.X)
	case *ast.IndexListExpr:
		return embeddedIdent(e.X)
	}
	id, _ := x.(*ast.Ident)
	return id
}

// TestNoOrphanExports: every exported func, method, type, const, var and
// struct field declared in a non-test file under internal/ is used by
// non-test code (orphans says what a use is). The one exception list is
// .github/census-allow.txt, which CI's coverage census reads too: a function
// no non-test code calls is one no driver runs.
func TestNoOrphanExports(t *testing.T) {
	c := loadCensus(t)
	data, err := os.ReadFile(filepath.Join(".github", "census-allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			allowed[f[0]] = true
		}
	}
	var bad []string
	for key, pos := range c.orphans() {
		if !allowed[key] {
			bad = append(bad, key+" ("+c.position(pos)+")")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("exported but no non-test code uses it: %s", b)
	}
}

// TestExamplesImportNoInternal: every file of every package under examples/
// imports only what a user of the module can import, so no path with an
// internal element. An example that needs internal/ is a fork of an lfbench
// experiment or an lfsim run, not an example.
func TestExamplesImportNoInternal(t *testing.T) {
	c := loadCensus(t)
	seen := 0
	for _, p := range c.pkgs {
		if !strings.HasPrefix(p.rel, "examples/") {
			continue
		}
		seen++
		for _, f := range p.files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if slices.Contains(strings.Split(path, "/"), "internal") {
					t.Errorf("%s: an example imports %s", c.position(imp.Pos()), path)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("the census loaded no package under examples/")
	}
}

// TestOrphanRuleMethodCases pins orphans' method cases on a fixture module:
// a method called only from a test, or named like a sort.Interface method
// on a type that is not one, is an orphan; one reached only through an
// interface that non-test code calls, directly or promoted through a type
// that embeds its receiver, or a String() string, is not.
func TestOrphanRuleMethodCases(t *testing.T) {
	files := []struct{ name, src string }{
		{"internal/fix/fix.go", `package fix

type Shape interface{ Area() int }

type Sq struct{}

func (Sq) Area() int      { return 1 }
func (Sq) String() string { return "sq" }
func (Sq) Len() int       { return 0 }
func (Sq) Side() int      { return 1 }

func Total(s Shape) int { return s.Area() }

type Solid interface {
	Volume() int
	Depth() int
}

type Slab struct{}

func (Slab) Volume() int { return 1 }

type Cube struct{ Slab }

func (Cube) Depth() int { return 1 }

func Weigh(s Solid) int { return s.Volume() * s.Depth() }
`},
		{"internal/fix/fix_test.go", `package fix

var _ = Sq{}.Side() + Sq{}.Len()
`},
		{"cmd/fix/main.go", `package main

import "fix/internal/fix"

func main() { _ = fix.Total(fix.Sq{}) + fix.Weigh(fix.Cube{}) }
`},
	}
	c := &census{fset: token.NewFileSet(), root: ".", stdIfaces: loadCensus(t).stdIfaces}
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) { return checked[path], nil })}
	for _, dir := range []string{"internal/fix", "cmd/fix"} {
		cp := &censusPkg{rel: dir, info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
		for _, f := range files {
			if filepath.Dir(f.name) == dir {
				af, err := parser.ParseFile(c.fset, f.name, f.src, 0)
				if err != nil {
					t.Fatal(err)
				}
				cp.files = append(cp.files, af)
			}
		}
		pkg, err := conf.Check("fix/"+dir, c.fset, cp.files, cp.info)
		if err != nil {
			t.Fatal(err)
		}
		checked[pkg.Path()] = pkg
		c.pkgs = append(c.pkgs, cp)
	}
	var got []string
	for key := range c.orphans() {
		got = append(got, key)
	}
	sort.Strings(got)
	if want := []string{"fix.Sq.Len", "fix.Sq.Side"}; !reflect.DeepEqual(got, want) {
		t.Errorf("orphans = %v, want %v", got, want)
	}
}

// ifaceMethods lists, by method name, interface types that declare it, and
// for each method that embedding promotes, the pointer types of the non-test
// named types that promote it.
type ifaceMethods struct {
	byName   map[string]map[types.Type]bool
	promoted map[*types.Func][]types.Type
}

func (m ifaceMethods) add(name string, iface types.Type) {
	if m.byName[name] == nil {
		m.byName[name] = map[types.Type]bool{}
	}
	m.byName[name][iface] = true
}

// implements reports whether fn is a method whose receiver type, or a type
// that promotes it by embedding, satisfies an interface m lists under fn's
// name.
func (m ifaceMethods) implements(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t) // its method set holds T's methods too
	}
	for iface := range m.byName[fn.Name()] {
		for _, t := range append([]types.Type{t}, m.promoted[fn.Origin()]...) {
			if types.Implements(t, iface.Underlying().(*types.Interface)) {
				return true
			}
		}
	}
	return false
}

// nonTestUses returns what non-test code in the module uses: every object
// an identifier in a non-test file refers to (a generic instance's method
// or field by its origin), and the interfaces through which it calls
// methods. Those are the interfaces whose methods a non-test identifier
// refers to, plus stdIfaces whole, since the standard library calls them.
func (c *census) nonTestUses() (map[types.Object]bool, ifaceMethods) {
	used := map[types.Object]bool{}
	called := ifaceMethods{byName: map[string]map[types.Type]bool{}, promoted: map[*types.Func][]types.Type{}}
	for _, iface := range c.stdIfaces {
		it := iface.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			called.add(it.Method(i).Name(), iface)
		}
	}
	for _, p := range c.pkgs {
		nonTest := map[*token.File]bool{}
		for _, f := range p.files {
			if !c.isTest(f) {
				nonTest[c.fset.File(f.Pos())] = true
			}
		}
		for id, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && nonTest[c.fset.File(id.Pos())] && !tn.IsAlias() {
				t := types.NewPointer(tn.Type())
				ms := types.NewMethodSet(t)
				for i := 0; i < ms.Len(); i++ {
					if sel := ms.At(i); len(sel.Index()) > 1 {
						fn := sel.Obj().(*types.Func).Origin()
						called.promoted[fn] = append(called.promoted[fn], t)
					}
				}
			}
		}
		for id, obj := range p.info.Uses {
			if !nonTest[c.fset.File(id.Pos())] {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					called.add(o.Name(), recv.Type())
				}
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
	}
	return used, called
}

// orphans returns every exported func, method, type, const, var and struct
// field declared in a non-test file under internal/ that non-test code does
// not use, keyed as census-allow.txt keys it (pkg.Name, pkg.Type.Field,
// pkg.Recv.Method). A method is also used when its receiver type satisfies
// an interface through which non-test code calls it (nonTestUses).
func (c *census) orphans() map[string]token.Pos {
	used, called := c.nonTestUses()
	found := map[string]token.Pos{}
	for _, p := range c.pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(p.rel, "internal/")
		check := func(key string, id *ast.Ident) {
			obj := p.info.Defs[id]
			if fn, ok := obj.(*types.Func); id.IsExported() && !used[obj] && !(ok && called.implements(fn)) {
				found[pkg+"."+key] = id.Pos()
			}
		}
		for _, f := range p.files {
			if c.isTest(f) {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						check(embeddedIdent(d.Recv.List[0].Type).Name+"."+d.Name.Name, d.Name)
					} else {
						check(d.Name.Name, d.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							check(s.Name.Name, s.Name)
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, fld := range st.Fields.List {
									for _, id := range fld.Names {
										check(s.Name.Name+"."+id.Name, id)
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								check(id.Name, id)
							}
						}
					}
				}
			}
		}
	}
	return found
}

// fieldReads collects every struct field that non-test code in the module
// reads.
//   - A read is a selection that is not the target of an assignment (=,
//     op=) or of ++/--, so a call through a func-typed field and &x.f both
//     count; a composite literal key is a write. x.f += n is a write
//     because, like x.f++, it feeds only x.f.
//   - Every embedded field on a selection's path is read: x.f and x.M()
//     reach f and M through it.
//   - A field of an instance of a generic type is its origin's field.
//   - A struct used as a map key or compared with == or != has every field
//     read, and so has one handed whole to fmt, encoding/json or reflect.
func (c *census) fieldReads() map[*types.Var]bool {
	read := map[*types.Var]bool{}
	var readAll func(t types.Type, seen map[types.Type]bool)
	readAll = func(t types.Type, seen map[types.Type]bool) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				readAll(u.Field(i).Type(), seen)
			}
		case *types.Array:
			readAll(u.Elem(), seen)
		case *types.Pointer:
			readAll(u.Elem(), seen)
		}
	}
	wholeReaders := map[string]bool{"fmt": true, "encoding/json": true, "reflect": true}
	for _, p := range c.pkgs {
		for _, f := range p.files {
			if c.isTest(f) {
				continue
			}
			written := map[*ast.SelectorExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							written[sel] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(s.X).(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				case *ast.SelectorExpr:
					sel := p.info.Selections[s]
					if sel == nil {
						return true
					}
					if sel.Kind() == types.FieldVal && !written[s] {
						read[sel.Obj().(*types.Var).Origin()] = true
					}
					typ := sel.Recv()
					idx := sel.Index()
					for _, i := range idx[:len(idx)-1] {
						if ptr, ok := typ.Underlying().(*types.Pointer); ok {
							typ = ptr.Elem()
						}
						st, ok := typ.Underlying().(*types.Struct)
						if !ok {
							break
						}
						read[st.Field(i).Origin()] = true
						typ = st.Field(i).Type()
					}
				case *ast.MapType:
					if tv, ok := p.info.Types[s.Key]; ok {
						readAll(tv.Type, map[types.Type]bool{})
					}
				case *ast.BinaryExpr:
					if s.Op == token.EQL || s.Op == token.NEQ {
						if tv, ok := p.info.Types[s.X]; ok {
							if _, ok := tv.Type.Underlying().(*types.Struct); ok {
								readAll(tv.Type, map[types.Type]bool{})
							}
						}
					}
				case *ast.CallExpr:
					fn := calleeFunc(p.info, s)
					if fn == nil || fn.Pkg() == nil || !wholeReaders[fn.Pkg().Path()] {
						return true
					}
					for _, arg := range s.Args {
						if tv, ok := p.info.Types[arg]; ok {
							readAll(tv.Type, map[types.Type]bool{})
						}
					}
				}
				return true
			})
		}
	}
	return read
}

// calleeFunc returns the function or method a call names, or nil for a
// conversion, a builtin or a call of a func value.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// TestNoWriteOnlyFields: every field of a struct declared in a non-test
// file under internal/ is read in some non-test file of the module, bench/
// included (fieldReads says what a read is). writeOnly lists the fields
// kept anyway, each with its reason; an entry that is read, or gone, fails
// too.
func TestNoWriteOnlyFields(t *testing.T) {
	writeOnly := map[string]string{
		"netsim.Switch.unrouted": "counts packets with no route; tests assert it to prove a misroute did or did not happen",
		"tcp.Host.RxDropped":     "counts segments for no endpoint; tests assert it to prove a drop did or did not happen",
		"tcp.Host.TxDropped":     "counts segments the NIC refused; tests assert it to prove a drop did or did not happen",
		"tcp.Receiver.DupAcks":   "counts duplicate ACKs sent; tests assert it to prove reordering or loss was seen",
	}
	c := loadCensus(t)
	read := c.fieldReads()
	var bad []string
	seen := map[string]bool{}
	for _, d := range c.internalFields() {
		seen[d.site] = true
		_, allowed := writeOnly[d.site]
		switch r := read[d.field]; {
		case !allowed && !r:
			bad = append(bad, "written but never read: "+d.site)
		case allowed && r:
			bad = append(bad, "allow-listed but read: "+d.site)
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

// setting is what one assignment of a field or one argument of a call
// gives: a constant, zero, or something that varies.
type setting struct {
	val    constant.Value // nil: zero
	varies bool
}

// settingOf reads e's constant value: zero for nil and for a constant
// zero, varies for anything not constant.
func settingOf(info *types.Info, e ast.Expr) setting {
	tv, ok := info.Types[e]
	switch {
	case ok && tv.IsNil():
		return setting{}
	case !ok || tv.Value == nil:
		return setting{varies: true}
	}
	v := tv.Value
	switch v.Kind() {
	case constant.Bool:
		if !constant.BoolVal(v) {
			return setting{}
		}
	case constant.String:
		if constant.StringVal(v) == "" {
			return setting{}
		}
	case constant.Int, constant.Float, constant.Complex:
		if constant.Sign(v) == 0 {
			return setting{}
		}
	}
	return setting{val: v}
}

// same reports whether two settings give the same constant.
func (s setting) same(o setting) bool {
	switch {
	case s.varies || o.varies:
		return false
	case s.val == nil || o.val == nil:
		return s.val == nil && o.val == nil
	}
	num := func(v constant.Value) bool {
		k := v.Kind()
		return k == constant.Int || k == constant.Float || k == constant.Complex
	}
	if s.val.Kind() != o.val.Kind() && !(num(s.val) && num(o.val)) {
		return false
	}
	return constant.Compare(s.val, token.EQL, o.val)
}

func (s setting) String() string {
	if s.val == nil {
		return "zero"
	}
	return s.val.ExactString()
}

// TestNoConstantConfig: configuration that is the same wherever non-test
// code sets it is a constant, not configuration (constantConfig says what
// counts). kept lists the rows kept anyway, each with its reason; an entry
// that no longer holds one constant, or is gone, fails too.
func TestNoConstantConfig(t *testing.T) {
	const frozen = "bench/ calls it with this value, and bench/ is frozen"
	kept := map[string]string{
		"cc.NewAlphaController(initialAlpha)":   frozen,
		"cc.PretrainAlpha(alpha)":               frozen,
		"core.Config.OutMax":                    "bench/ sets it to this value, and bench/ is frozen",
		"core.Core.SetFlowCache(enabled)":       frozen,
		"nn.TrainBatch(clipNorm)":               frozen + "; the reference test (train_test.go) sweeps 0 and 1",
		"rig.FleetOpts.CanaryWindow":            "TestGoldenFailurePaths stages its chaos fleet for 8 aggregation rounds so the next drift meets an open wave; its goldens pin that run byte for byte",
		"tcp.NewBurstyUDP(halfPeriod)":          frozen,
		"tcp.NewBurstyUDP(high)":                frozen,
		"tcp.NewBurstyUDP(low)":                 frozen,
		"tcp.NewUDPSource(flow)":                frozen,
		"topo.Dumbbell.ProvisionCPUs(cores)":    frozen,
		"workload.PatternSwitcher.StartAt(idx)": frozen,
	}
	found := loadCensus(t).constantConfig()
	var bad []string
	for site, what := range found {
		if _, ok := kept[site]; !ok {
			bad = append(bad, site+": "+what)
		}
	}
	for site := range kept {
		if _, ok := found[site]; !ok {
			bad = append(bad, "allow-listed but not constant, or gone: "+site)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// constantConfig returns, by "pkg.Type.field" or "pkg.Func(param)", the
// configuration that non-test code gives one value everywhere:
//   - By field: a field of an internal/ struct type named *Opts, *Config,
//     *Spec or *Options that every non-test composite literal, var
//     declaration and field assignment leaves at zero or sets to one
//     constant. A field json decodes (it has a json tag) takes its value
//     from data, so it is not counted.
//   - By parameter: a parameter of an internal/ function that has two or
//     more non-test call sites, is never used as a value (nor, for a method,
//     called through an interface, as nonTestUses finds them), and gets one
//     constant at every call.
func (c *census) constantConfig() map[string]string {
	_, called := c.nonTestUses()
	fields := map[*types.Var]*configRow{}
	for _, d := range c.internalFields() {
		if strings.Contains(d.tag, "json:") || d.field.Embedded() {
			continue
		}
		for _, suf := range []string{"Opts", "Config", "Spec", "Options"} {
			if strings.HasSuffix(d.typ, suf) {
				fields[d.field] = &configRow{site: d.site}
			}
		}
	}
	set := func(v *types.Var, s setting) {
		if r := fields[v.Origin()]; r != nil {
			r.sets = append(r.sets, s)
		}
	}
	funcs := map[*types.Func]*configRow{}
	for _, p := range c.pkgs {
		for _, f := range p.files {
			if c.isTest(f) || !strings.HasPrefix(p.rel, "internal/") {
				continue
			}
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					site := f.Name.Name + "." + d.Name.Name
					if d.Recv != nil {
						site = f.Name.Name + "." + embeddedIdent(d.Recv.List[0].Type).Name + "." + d.Name.Name
					}
					funcs[p.info.Defs[d.Name].(*types.Func)] = &configRow{site: site}
				}
			}
		}
	}

	for _, p := range c.pkgs {
		walked := map[*token.File]bool{}
		callee := map[*ast.Ident]bool{}
		for _, f := range p.files {
			if c.isTest(f) {
				continue
			}
			walked[c.fset.File(f.Pos())] = true
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.CompositeLit:
					st, ok := structOf(p.info.Types[s].Type)
					if !ok {
						return true
					}
					given := map[*types.Var]setting{}
					for i, elt := range s.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								given[v] = settingOf(p.info, kv.Value)
							}
						} else {
							given[st.Field(i)] = settingOf(p.info, elt)
						}
					}
					for i := 0; i < st.NumFields(); i++ {
						set(st.Field(i), given[st.Field(i)])
					}
				case *ast.ValueSpec: // var x T leaves every field of T at zero
					if st, ok := structOf(p.info.TypeOf(s.Type)); ok && len(s.Values) == 0 {
						for i := 0; i < st.NumFields(); i++ {
							set(st.Field(i), setting{})
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range s.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && p.info.Selections[sel] != nil {
							v := p.info.Selections[sel].Obj().(*types.Var)
							if s.Tok == token.ASSIGN && len(s.Lhs) == len(s.Rhs) {
								set(v, settingOf(p.info, s.Rhs[i]))
							} else {
								set(v, setting{varies: true})
							}
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(s.X).(*ast.SelectorExpr); ok && p.info.Selections[sel] != nil {
						set(p.info.Selections[sel].Obj().(*types.Var), setting{varies: true})
					}
				case *ast.CallExpr:
					switch x := ast.Unparen(s.Fun).(type) {
					case *ast.SelectorExpr:
						callee[x.Sel] = true
					case *ast.Ident:
						callee[x] = true
					}
					fn := calleeFunc(p.info, s)
					if fn == nil || funcs[fn.Origin()] == nil {
						return true
					}
					r := funcs[fn.Origin()]
					sig := fn.Type().(*types.Signature)
					r.calls++
					for i := 0; i < sig.Params().Len(); i++ {
						if len(r.args) <= i {
							r.args = append(r.args, nil)
						}
						a := setting{varies: true}
						if len(s.Args) == sig.Params().Len() && !(sig.Variadic() && i == sig.Params().Len()-1) {
							a = settingOf(p.info, s.Args[i])
						}
						r.args[i] = append(r.args[i], a)
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && funcs[fn.Origin()] != nil && !callee[id] && walked[c.fset.File(id.Pos())] {
				funcs[fn.Origin()].asValue = true
			}
		}
	}

	found := map[string]string{}
	for _, r := range fields {
		if v, ok := oneConstant(r.sets); ok {
			found[r.site] = fmt.Sprintf("field is %v at all %d settings", v, len(r.sets))
		}
	}
	for fn, r := range funcs {
		if r.calls < 2 || r.asValue || called.implements(fn) {
			continue
		}
		for i, sets := range r.args {
			if v, ok := oneConstant(sets); ok {
				name := fn.Type().(*types.Signature).Params().At(i).Name()
				found[r.site+"("+name+")"] = fmt.Sprintf("parameter is %v at all %d calls", v, r.calls)
			}
		}
	}
	return found
}

// configRow is one field's settings, or one function's calls and arguments.
type configRow struct {
	site    string
	sets    []setting   // a field's
	calls   int         // a function's
	args    [][]setting // per parameter
	asValue bool        // the function is used other than called
}

// oneConstant reports whether sets all give one constant (no sets: zero).
func oneConstant(sets []setting) (setting, bool) {
	if len(sets) == 0 {
		return setting{}, true
	}
	for _, s := range sets {
		if !s.same(sets[0]) {
			return setting{}, false
		}
	}
	return sets[0], true
}

// structOf returns t's struct type, through one pointer.
func structOf(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// TestNoHandRolledRepeats: work that repeats in virtual time runs on a
// netsim.Ticker, the one primitive with one stop discipline. The test fails
// on a non-test function outside internal/netsim that passes itself to an
// Engine's After or At, as a func or method value or through a func literal
// that calls it (selfSchedulers says how a function is named). bench/ is
// frozen and examples/ reach the engine through the root package, which
// exports no ticker, so neither is read. kept lists the bounded
// re-schedulers that stay, each with its reason; an entry that no longer
// re-schedules itself, or is gone, fails too.
func TestNoHandRolledRepeats(t *testing.T) {
	kept := map[string]string{
		"core.Service.tryInstall":      "a bounded retry: each attempt carries its number, and the last one abandons the install",
		"core.FlowBackend.query":       "a stalled query re-checks the router lock once its remaining time has passed, carrying the query and its stall start",
		"experiments.FigFlowChurn.run": "one query chain per flow, carrying the queries left, which ends with the flow",
	}
	found := loadCensus(t).selfSchedulers()
	var bad []string
	for site, pos := range found {
		if _, ok := kept[site]; !ok {
			bad = append(bad, site+" schedules itself at "+pos+"; run it on a netsim.Ticker")
		}
	}
	for site := range kept {
		if _, ok := found[site]; !ok {
			bad = append(bad, "allow-listed but no longer schedules itself, or gone: "+site)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// censusFunc is one function with a body that a non-test file declares,
// named "pkg.Func" or "pkg.Type.Method".
type censusFunc struct {
	site string
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *censusPkg
}

// funcs returns every censusFunc of the module, in load order.
func (c *census) funcs() []censusFunc {
	var out []censusFunc
	for _, p := range c.pkgs {
		for _, f := range p.files {
			if c.isTest(f) {
				continue
			}
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil {
					continue
				}
				site := f.Name.Name + "." + d.Name.Name
				if d.Recv != nil {
					site = f.Name.Name + "." + embeddedIdent(d.Recv.List[0].Type).Name + "." + d.Name.Name
				}
				out = append(out, censusFunc{site, p.info.Defs[d.Name].(*types.Func), d, p})
			}
		}
	}
	return out
}

// selfSchedulers returns, by "pkg.Func", "pkg.Type.Method" or, for a func
// literal assigned to a variable, "pkg.Func.variable", each function outside
// internal/netsim, bench/ and examples/ whose body hands itself to
// (*netsim.Engine).After or At, with the position of the first such call.
func (c *census) selfSchedulers() map[string]string {
	found := map[string]string{}
	for _, f := range c.funcs() {
		if rel := f.pkg.rel; rel == "internal/netsim" || strings.HasPrefix(rel, "bench") || strings.HasPrefix(rel, "examples") {
			continue
		}
		info := f.pkg.info
		c.scanSelfSchedule(info, f.decl.Body, f.fn, f.site, found)
		// A func literal assigned to a variable is a function of its own,
		// named after the variable.
		ast.Inspect(f.decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				lit, isLit := as.Rhs[i].(*ast.FuncLit)
				if ok && isLit {
					c.scanSelfSchedule(info, lit.Body, info.Uses[id], f.site+"."+id.Name, found)
				}
			}
			return true
		})
	}
	return found
}

// scanSelfSchedule records site in found when body passes self to an
// Engine's After or At: as the func value itself, or in a func literal that
// calls it.
func (c *census) scanSelfSchedule(info *types.Info, body ast.Node, self types.Object, site string, found map[string]string) {
	if self == nil {
		return
	}
	names := func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x] == self
		case *ast.SelectorExpr:
			return info.Uses[x.Sel] == self
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 || !isEngineSchedule(calleeFunc(info, call)) {
			return true
		}
		arg := ast.Unparen(call.Args[1])
		hit := names(arg)
		if lit, ok := arg.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if inner, ok := n.(*ast.CallExpr); ok && names(inner.Fun) {
					hit = true
				}
				return !hit
			})
		}
		if _, seen := found[site]; hit && !seen {
			found[site] = c.position(call.Pos())
		}
		return true
	})
}

// isEngineSchedule reports whether fn is (*netsim.Engine).After or At.
func isEngineSchedule(fn *types.Func) bool {
	if fn == nil || (fn.Name() != "After" && fn.Name() != "At") {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Engine" && strings.HasSuffix(named.Obj().Pkg().Path(), "/internal/netsim")
}

// fastPathRoots are the datapath's entry points: lf_query_model, the CC
// backend that quantizes around it, the integer inference, the monitor
// interval that asks it, the collector that mirrors its queries, and the
// kernel-side sample push.
var fastPathRoots = []string{
	"core.Core.QueryModel",
	"core.FlowBackend.Query",
	"quant.Program.InferWith",
	"cc.monitor.endMI",
	"rig.collector.Query",
	"netlink.Channel.Push",
}

// TestNoFastPathLocksOrClosures: the datapath keeps the kernel's rules
// (ROADMAP 22). In the paper lf_query_model and the sample collector run in
// kernel context, where they may not sleep, so here the functions the
// fastPathRoots reach by static calls inside the module take no sync lock
// and build no closure: no func literal and no method value, each of which
// is built on every run of the function that holds it. kept lists the
// exceptions, each with its reason; an entry the walk no longer finds fails
// too.
func TestNoFastPathLocksOrClosures(t *testing.T) {
	kept := map[string]string{
		"core.FlowBackend.query": "a stalled query re-checks the router lock once its remaining time has passed; the closure carries the query and its stall start, and is built only while a blocking install holds the lock",
		"obs.Tracer.record":      "the trace ring's lock, which keeps a tracer safe to read while it records; a scope with no tracer returns before it, so only a traced run takes it",
	}
	found := loadCensus(t).fastPathBreaks(fastPathRoots)
	var bad []string
	for site, why := range found {
		if _, ok := kept[site]; !ok {
			bad = append(bad, site+" "+why)
		}
	}
	for site := range kept {
		if _, ok := found[site]; !ok {
			bad = append(bad, "allow-listed but reached by no fast-path root, or keeps the rules: "+site)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// fastPathBreaks walks the static calls from roots through the module's
// censusFuncs and returns by site what breaks the fast path's rules, with
// where. Calls through an interface or a func value end the walk; a func
// literal is reported and not entered.
func (c *census) fastPathBreaks(roots []string) map[string]string {
	decls := map[*types.Func]censusFunc{}
	byName := map[string]*types.Func{}
	for _, f := range c.funcs() {
		decls[f.fn], byName[f.site] = f, f.fn
	}
	found := map[string]string{}
	report := func(site string, pos token.Pos, what string) {
		if _, seen := found[site]; !seen {
			found[site] = what + " at " + c.position(pos)
		}
	}
	var queue []*types.Func
	seen := map[*types.Func]bool{}
	for _, r := range roots {
		fn := byName[r]
		if fn == nil {
			found[r] = "is a fast-path root that no longer exists"
			continue
		}
		seen[fn], queue = true, append(queue, fn)
	}
	for len(queue) > 0 {
		d := decls[queue[0]]
		queue = queue[1:]
		info := d.pkg.info
		called := map[ast.Expr]bool{}
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				report(d.site, x.Pos(), "builds a func literal")
				return false
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal && !called[x] {
					report(d.site, x.Pos(), "builds the method value "+x.Sel.Name)
				}
			case *ast.CallExpr:
				called[ast.Unparen(x.Fun)] = true
				fn := calleeFunc(info, x)
				if fn == nil {
					return true
				}
				if fn.Pkg() != nil && fn.Pkg().Path() == "sync" && (fn.Name() == "Lock" || fn.Name() == "RLock") {
					report(d.site, x.Pos(), "takes the lock "+fn.FullName())
				}
				if fn = fn.Origin(); decls[fn].decl != nil && !seen[fn] {
					seen[fn], queue = true, append(queue, fn)
				}
			}
			return true
		})
	}
	return found
}
