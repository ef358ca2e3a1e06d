// Command deadcode lists declarations under internal/ that nothing
// outside their own package's tests uses. Every package of the module is
// type-checked with its tests, and so is every nested module
// (layerbench). It applies three rules.
//
// Unreferenced. An exported package-level function, type, variable or
// constant, or an exported method, that nothing references. A use from a
// _test.go file in the declaration's own directory does not count, so an
// API kept alive only by its own unit tests is reported; uses from other
// packages' tests (root benchmarks, oracles another package's tests
// call) and from nested modules do count. The type named in a method's
// receiver is not used by that method, so a type kept only by its own
// methods is reported. A method is skipped when its type has every
// method of some interface in the type-checked program that includes it
// (String, Len/Less/Swap, the policy interfaces, ...), because interface
// dispatch uses such methods without naming them.
//
// Compared, never produced. An exported constant whose every use,
// outside its own directory's tests, is a case label or an operand of
// == or !=: no value ever equals it, so every such test is dead.
//
// Written, never read. A struct field, exported or not, that no code
// reads, tests included (a test that reads a field checks observable
// state). Writes are the left side of an assignment, ++/--, and a key in
// a keyed composite literal; every other use is a read. Embedded fields
// and fields with a struct tag are skipped (reflection reads them), and
// so are the fields of a struct type used as a map key or compared with
// == or !=, because the comparison reads every field.
//
// It prints one "file:line: pkg.Name" line per finding, with the rule
// appended for the last two, and exits 1 when there is any, 2 when the
// module does not type-check.
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
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
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
	c.units = append(c.units, &unit{pkg: pkg, info: info, files: files, internal: internal})
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

// how says what an identifier's use does with the object it names.
type how int

const (
	other    how = iota
	compared     // a case label or an operand of == or !=
	written      // assigned, incremented or decremented, or a composite-literal key
)

// walk calls f for every identifier of file that uses an object, with
// what its use does.
func walk(info *types.Info, file *ast.File, f func(id *ast.Ident, obj types.Object, h how)) {
	var parents []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			parents = parents[:len(parents)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				f(id, obj, useOf(id, parents))
			}
		}
		parents = append(parents, n)
		return true
	})
}

// useOf classifies the use of id, whose ancestors are parents. The
// expression it names is id itself, or the selector x.id, in
// parentheses or not.
func useOf(id *ast.Ident, parents []ast.Node) how {
	var e ast.Expr = id
	i := len(parents) - 1
	for ; i >= 0; i-- {
		if p, ok := parents[i].(*ast.SelectorExpr); ok && p.Sel == e {
			e = p
		} else if p, ok := parents[i].(*ast.ParenExpr); ok {
			e = p
		} else {
			break
		}
	}
	if i < 0 {
		return other
	}
	switch p := parents[i].(type) {
	case *ast.BinaryExpr:
		if p.Op == token.EQL || p.Op == token.NEQ {
			return compared
		}
	case *ast.CaseClause:
		if slices.Contains(p.List, e) {
			return compared
		}
	case *ast.AssignStmt:
		if slices.Contains(p.Lhs, e) {
			return written
		}
	case *ast.IncDecStmt:
		return written
	case *ast.KeyValueExpr:
		if _, lit := parents[i-1].(*ast.CompositeLit); lit && p.Key == e {
			return written
		}
	}
	return other
}

// compareAll marks the fields that comparing a value of type t reads:
// every field of a struct, recursively, and of an array's elements.
func (c *checker) compareAll(t types.Type, marked map[string]bool) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if p := c.pos(f); !marked[p] {
				marked[p] = true
				c.compareAll(f.Type(), marked)
			}
		}
	case *types.Array:
		c.compareAll(u.Elem(), marked)
	}
}

// pos names an object by its source position, which is the same in
// every type-check of its package.
func (c *checker) pos(obj types.Object) string { return c.fset.Position(obj.Pos()).String() }

// dead returns the findings of the three rules for the internal units,
// as sorted "file:line: pkg.Name" lines relative to root.
func (c *checker) dead(root string) []string {
	used := map[string]bool{}     // referenced outside the own directory's tests
	produced := map[string]bool{} // likewise, other than in a comparison
	read := map[string]bool{}     // field positions read anywhere
	exempt := map[string]bool{}   // field positions compared, tagged or embedded
	for _, u := range c.units {
		for _, f := range u.files {
			walk(u.info, f, func(id *ast.Ident, obj types.Object, h how) {
				if v, ok := obj.(*types.Var); ok && v.IsField() {
					if h != written {
						read[c.pos(v)] = true
					}
					return
				}
				k := key(obj)
				if k == "" || c.recv[id] {
					return
				}
				if file := c.fset.Position(id.Pos()).Filename; strings.HasSuffix(file, "_test.go") &&
					filepath.Dir(file) == filepath.Dir(c.fset.Position(obj.Pos()).Filename) {
					return // a package's own tests do not keep its API alive
				}
				used[k] = true
				if h != compared {
					produced[k] = true
				}
			})
		}
		for e, tv := range u.info.Types {
			if m, ok := tv.Type.(*types.Map); ok {
				c.compareAll(m.Key(), exempt)
			}
			if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
				c.compareAll(u.info.TypeOf(b.X), exempt)
				c.compareAll(u.info.TypeOf(b.Y), exempt)
			}
		}
	}
	ifaces := c.interfaces()
	var out []string
	for _, u := range c.units {
		if !u.internal {
			continue
		}
		owner := map[string]string{} // field position → its named struct type
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, name := range fl.Names {
								owner[c.fset.Position(name.Pos()).String()] = n.Name.Name + "."
							}
						}
					}
				case *ast.Field:
					if n.Tag != nil || len(n.Names) == 0 {
						for _, name := range n.Names {
							exempt[c.fset.Position(name.Pos()).String()] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range u.info.Defs {
			if obj == nil {
				continue
			}
			pos := c.fset.Position(id.Pos())
			if strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			var name, rule string
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if p := pos.String(); v.Embedded() || read[p] || exempt[p] {
					continue
				} else {
					name, rule = owner[p]+v.Name(), " (written, never read)"
				}
			} else {
				k := key(obj)
				if k == "" || !id.IsExported() {
					continue
				}
				_, isConst := obj.(*types.Const)
				switch {
				case !used[k]:
					if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && viaInterface(fn, ifaces) {
						continue
					}
				case isConst && !produced[k]:
					rule = " (compared, never produced)"
				default:
					continue
				}
				name = strings.TrimPrefix(k, u.pkg.Path()+".")
			}
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			out = append(out, fmt.Sprintf("%s:%d: %s.%s%s", filepath.ToSlash(rel), pos.Line, u.pkg.Name(), name, rule))
		}
	}
	sort.Strings(out)
	return out
}
