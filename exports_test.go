package medea_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowList names the exports of internal packages that no
// non-test code references and that stay exported anyway, each with the
// reason. Calls through an interface of the module need no entry: the
// test credits every method that implements a called interface method.
var exportAllowList = map[string]string{
	"medea/internal/cluster.Cluster.Diff":      "test hook: the lra, chaos, audit and journal tests compare clusters with it",
	"medea/internal/cluster.Cluster.TotalUsed": "test hook: the audit tests read a cluster's usage with it",
	"medea/internal/constraint.Manager.Len":    "test hook: the core and server tests count registered constraints with it",
	"medea/internal/ilp.Minimize":              "names the zero Sense beside Maximize",
	"medea/internal/ilp.ModeExact":             "names the zero Mode beside ModeApprox",
	"medea/internal/ilp.Model.CheckFeasible":   "test hook: the lra placement oracle checks solutions with it",
	"medea/internal/metrics.Counters.Snapshot": "test hook: DST's counters.golden and the server ledger tests read every counter with it",
	"medea/internal/metrics.Table.NumRows":     "test hook: the root package's figure benchmarks check tables with it",
	"medea/internal/metrics.Table.Rows":        "test hook: the experiments tests read figure cells with it",
}

// stdInterfaces are the standard-library interfaces, besides error,
// through which the standard library calls methods of this module's
// types: a method that implements one of them is used.
var stdInterfaces = []string{"fmt/Stringer", "encoding/json/Marshaler", "encoding/json/Unmarshaler", "net/http/Handler", "sort/Interface"}

// TestInternalExportsAreUsed type-checks every package of the module,
// test files left out, and fails on an exported identifier of an
// internal package — a package-level name or a method of an exported
// type — that no non-test code references. Internal packages can be
// imported by this module only, so such an export is dead code kept
// alive by its tests. It reads the sources with go/parser and go/types;
// the standard library comes from the source importer, so it runs
// offline.
func TestInternalExportsAreUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by import path, non-test files only
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("medea", filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Check the module's packages dependencies first, so that every
	// package sees the same objects of the ones it imports.
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "source", nil)
	imp := importerFunc(func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		return std.Import(p)
	})
	uses := map[types.Object]bool{}
	var check func(p string)
	check = func(p string) {
		if _, ok := checked[p]; ok {
			return
		}
		for _, f := range files[p] {
			for _, spec := range f.Imports {
				if dep := strings.Trim(spec.Path.Value, `"`); files[dep] != nil {
					check(dep)
				}
			}
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p, fset, files[p], info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p, err)
		}
		checked[p] = pkg
		for _, obj := range info.Uses {
			uses[origin(obj)] = true
		}
		for _, sel := range info.Selections {
			uses[origin(sel.Obj())] = true
		}
	}
	var paths []string
	for p := range files {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		check(p)
	}

	// A call through an interface uses every method that implements the
	// called one. The standard library calls through the interfaces in
	// stdInterfaces and through error from its own sources, which the
	// module's do not show: their methods count as called.
	var called []*types.Func
	for obj := range uses {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called = append(called, fn)
			}
		}
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range stdInterfaces {
		pkg, err := imp.Import(path.Dir(name))
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(path.Base(name)).Type().Underlying().(*types.Interface))
	}
	for _, iface := range ifaces {
		for i := range iface.NumMethods() {
			called = append(called, iface.Method(i))
		}
	}
	var named []*types.Named
	for _, p := range paths {
		scope := checked[p].Scope()
		for _, name := range scope.Names() {
			if n, ok := scope.Lookup(name).Type().(*types.Named); ok && !types.IsInterface(n) {
				named = append(named, n)
			}
		}
	}
	for _, fn := range called {
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			if types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface) {
				m, _, _ := types.LookupFieldOrMethod(n, true, fn.Pkg(), fn.Name())
				uses[m] = true
			}
		}
	}

	var unused []string
	allowed := map[string]bool{}
	report := func(name string, obj types.Object) {
		switch {
		case uses[obj]:
		case exportAllowList[name] != "":
			allowed[name] = true
		default:
			unused = append(unused, name+" ("+fset.Position(obj.Pos()).String()+")")
		}
	}
	for _, p := range paths {
		if !strings.HasPrefix(p, "medea/internal/") {
			continue
		}
		scope := checked[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			report(p+"."+name, obj)
			tn, isType := obj.(*types.TypeName)
			named, ok := obj.Type().(*types.Named)
			if !isType || !ok || tn.IsAlias() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					report(p+"."+name+"."+m.Name(), m)
				}
			}
		}
	}
	for name := range exportAllowList {
		if !allowed[name] {
			t.Errorf("allow-list entry %s names no export that non-test code leaves unused: drop it", name)
		}
	}
	if len(unused) > 0 {
		t.Errorf("exported, but referenced by no non-test code (delete it, unexport it, or allow-list a call through an interface):\n\t%s", strings.Join(unused, "\n\t"))
	}
}

// origin returns the generic declaration of an instantiated method or
// field, and obj itself otherwise.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
