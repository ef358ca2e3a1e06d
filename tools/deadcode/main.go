// Command deadcode lists exported declarations under internal/ that
// nothing outside their own package's tests references: package-level
// functions, types, variables and constants, and exported methods.
// Every package of the module is type-checked with its tests, and so is
// every nested module (layerbench). A use from a _test.go file in the
// declaration's own directory does not count, so an API kept alive only
// by its own unit tests is reported; uses from other packages' tests
// (root benchmarks, oracles another package's tests call) and from
// nested modules do count. The type named in a method's receiver is not
// used by that method, so a type kept only by its own methods is
// reported. A method is skipped when its type has every
// method of some interface in the type-checked program that includes
// it (String, Len/Less/Swap, the policy interfaces, ...), because
// interface dispatch uses such methods without naming them.
//
// It prints one "file:line: pkg.Name" line per finding and exits 1
// when there is any, 2 when the module does not type-check.
//
//	go run ./tools/deadcode
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// unit is one type-checked package: a directory's package with its
// in-package tests, or its external _test package.
type unit struct {
	pkg  *types.Package
	info *types.Info
	// internal is true for the in-package unit of a directory under the
	// root module's internal/, whose declarations are candidates.
	internal bool
}

// checker type-checks every package reachable from the module root
// through one shared source importer.
type checker struct {
	fset  *token.FileSet
	imp   types.ImporterFrom
	units []*unit
	// recv holds the identifiers of method receiver types, which
	// do not count as uses.
	recv map[*ast.Ident]bool
}

func main() {
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	dead, err := scan(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, d := range dead {
		fmt.Println(d)
	}
	if len(dead) > 0 {
		os.Exit(1)
	}
}

// scan type-checks the module rooted at root and returns its findings.
func scan(root string) ([]string, error) {
	// Pure-Go builds: the source importer would otherwise need a C
	// toolchain for the cgo halves of net and os/user.
	build.Default.CgoEnabled = false
	// The source importer resolves module imports with go list, run in
	// this directory.
	build.Default.Dir = root
	fset := token.NewFileSet()
	c := &checker{fset: fset, imp: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom), recv: map[*ast.Ident]bool{}}
	if err := c.module(root, root); err != nil {
		return nil, err
	}
	return c.dead(root), nil
}

// module type-checks every package of the module rooted at dir. Nested
// directories with their own go.mod are checked as their own modules.
func (c *checker) module(dir, repoRoot string) error {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				if err := c.module(path, repoRoot); err != nil {
					return err
				}
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		internal := dir == repoRoot && (rel == "internal" || strings.HasPrefix(rel, "internal"+string(filepath.Separator)))
		return c.dir(path, importPath, internal)
	})
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// dir type-checks the package in dir (with its in-package tests) and
// its external test package, if any. As under go test, the external
// test package sees the package with its in-package tests, so it can
// use what they export.
func (c *checker) dir(dir, importPath string, internal bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var pkgFiles, xtestFiles []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtestFiles = append(xtestFiles, f)
		} else {
			pkgFiles = append(pkgFiles, f)
		}
	}
	imp := c.imp
	if len(pkgFiles) > 0 {
		pkg, err := c.check(importPath, pkgFiles, internal, imp)
		if err != nil {
			return err
		}
		imp = withPackage{imp, pkg}
	}
	if len(xtestFiles) > 0 {
		_, err := c.check(importPath+"_test", xtestFiles, false, imp)
		return err
	}
	return nil
}

func (c *checker) check(path string, files []*ast.File, internal bool, imp types.ImporterFrom) (*types.Package, error) {
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	c.units = append(c.units, &unit{pkg: pkg, info: info, internal: internal})
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						c.recv[id] = true
					}
					return true
				})
			}
		}
	}
	return pkg, nil
}

// withPackage resolves one import path to an already checked package
// and every other path through the wrapped importer.
type withPackage struct {
	types.ImporterFrom
	pkg *types.Package
}

func (w withPackage) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == w.pkg.Path() {
		return w.pkg, nil
	}
	return w.ImporterFrom.ImportFrom(path, dir, mode)
}

// key names an object independently of which type-check produced it:
// the source importer and the with-tests check of the same package
// build distinct objects for one declaration.
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return path + "." + recvName(recv.Type()) + "." + fn.Name()
		}
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// recvName returns the name of a method receiver's base type.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj().Name()
	}
	return t.String()
}

// interfaces collects the method-name sets of every interface type in
// the checked units and the packages they import, one entry per
// distinct set.
func (c *checker) interfaces() [][]string {
	sets := map[string][]string{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		names := make([]string, it.NumMethods())
		for i := range names {
			names[i] = it.Method(i).Name()
		}
		sets[strings.Join(names, ",")] = names
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, u := range c.units {
		visit(u.pkg)
		for _, tv := range u.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
		for _, obj := range u.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	out := make([][]string, 0, len(sets))
	for _, names := range sets {
		out = append(out, names)
	}
	return out
}

// viaInterface reports whether method fn can be reached through an
// interface: some interface has a method of that name, and the
// receiver's method set has every method name of that interface.
// Names, not signatures, are compared, because the importer's copy of
// a package and its with-tests copy declare distinct types.
func viaInterface(fn *types.Func, ifaces [][]string) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if types.IsInterface(recv) {
		return true // the interface's own method
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	has := func(name string) bool { return mset.Lookup(fn.Pkg(), name) != nil }
	for _, names := range ifaces {
		if !slices.Contains(names, fn.Name()) {
			continue
		}
		all := true
		for _, n := range names {
			if !has(n) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// dead returns the unreferenced exported declarations of the internal
// units, as sorted "file:line: pkg.Name" lines relative to root.
func (c *checker) dead(root string) []string {
	used := map[string]bool{}
	for _, u := range c.units {
		for id, obj := range u.info.Uses {
			k := key(obj)
			if k == "" || used[k] || c.recv[id] {
				continue
			}
			if file := c.fset.Position(id.Pos()).Filename; strings.HasSuffix(file, "_test.go") &&
				filepath.Dir(file) == filepath.Dir(c.fset.Position(obj.Pos()).Filename) {
				continue // a package's own tests do not keep its API alive
			}
			used[k] = true
		}
	}
	ifaces := c.interfaces()
	var out []string
	for _, u := range c.units {
		if !u.internal {
			continue
		}
		for id, obj := range u.info.Defs {
			if obj == nil || !id.IsExported() {
				continue
			}
			pos := c.fset.Position(id.Pos())
			if strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			k := key(obj)
			if k == "" || used[k] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && viaInterface(fn, ifaces) {
				continue
			}
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			name := strings.TrimPrefix(k, u.pkg.Path()+".")
			out = append(out, fmt.Sprintf("%s:%d: %s.%s", filepath.ToSlash(rel), pos.Line, u.pkg.Name(), name))
		}
	}
	sort.Strings(out)
	return out
}
