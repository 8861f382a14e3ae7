package vet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the analysis target.
type Package struct {
	Path  string // import path, e.g. "tmi3d/internal/place"
	Dir   string // absolute directory on disk
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Funcs is the package's function index: every function and method
	// declaration with a body, in file and declaration order, paired with
	// its object. Analyzers walk it instead of re-scanning Files.
	Funcs  []FuncDecl
	bodies map[*types.Func]*ast.BlockStmt
}

// FuncDecl is one declared function or method with a body. Obj is nil only
// when the type checker defined no function object for the name.
type FuncDecl struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// Body returns the body of fn when this package declares it, else nil — so
// a summary built from Body stays within the package.
func (p *Package) Body(fn *types.Func) *ast.BlockStmt { return p.bodies[fn] }

// indexFuncs builds the function index once, at load time.
func (p *Package) indexFuncs() {
	p.bodies = map[*types.Func]*ast.BlockStmt{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			p.Funcs = append(p.Funcs, FuncDecl{Decl: fd, Obj: fn})
			if fn != nil {
				p.bodies[fn] = fd.Body
			}
		}
	}
}

// Module is a fully loaded analysis target: every non-test package under the
// module root, parsed with comments and type-checked against the real
// standard library (via the source importer, so no compiled export data or
// external tooling is required).
type Module struct {
	Path string // module path from go.mod
	Root string // absolute module root
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path

	byTypes map[*types.Package]*Package
}

func newModule(path, root string, fset *token.FileSet, pkgs []*Package) *Module {
	m := &Module{Path: path, Root: root, Fset: fset, Pkgs: pkgs, byTypes: map[*types.Package]*Package{}}
	for _, pkg := range pkgs {
		m.byTypes[pkg.Types] = pkg
	}
	return m
}

// declOf finds the module package declaring fn and fn's body there; ok is
// false for functions without a body in the module (stdlib, interface
// methods, instantiated generics).
func (m *Module) declOf(fn *types.Func) (pkg *Package, body *ast.BlockStmt, ok bool) {
	if pkg = m.byTypes[fn.Pkg()]; pkg != nil {
		body = pkg.Body(fn)
	}
	return pkg, body, body != nil
}

// Load parses and type-checks every non-test package under root, which must
// contain a go.mod. File positions are recorded relative to root so
// diagnostics are stable across checkouts.
func Load(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := newLoader(root, modPath)
	if err := l.parseTree(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.parsed))
	for p := range l.parsed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.check(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return newModule(modPath, root, l.fset, pkgs), nil
}

// LoadDir loads a single directory as one standalone package under the given
// import path — the fixture loader for analyzer tests. Only standard-library
// imports are resolved. Positions are relative to dir.
func LoadDir(dir, importPath string) (*Module, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(dir, importPath)
	files, err := l.parseDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	l.parsed[importPath] = &parsedPkg{dir: dir, files: files}
	pkg, err := l.check(importPath)
	if err != nil {
		return nil, err
	}
	return newModule(importPath, dir, l.fset, []*Package{pkg}), nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

type parsedPkg struct {
	dir   string
	files []*ast.File
}

type loader struct {
	fset     *token.FileSet
	root     string
	mod      string
	parsed   map[string]*parsedPkg // import path -> syntax
	done     map[string]*Package
	checking map[string]bool
	std      types.Importer
}

func newLoader(root, mod string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:     fset,
		root:     root,
		mod:      mod,
		parsed:   map[string]*parsedPkg{},
		done:     map[string]*Package{},
		checking: map[string]bool{},
		std:      importer.ForCompiler(fset, "source", nil),
	}
}

// parseTree walks the module, parsing every package directory. testdata,
// vendor, and hidden directories are skipped, as are _test.go files: the
// analyzers enforce production determinism, and tests measure wall-clock
// freely.
func (l *loader) parseTree() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		imp := l.mod
		if rel != "." {
			imp = l.mod + "/" + filepath.ToSlash(rel)
		}
		files, err := l.parseDir(path, imp)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			l.parsed[imp] = &parsedPkg{dir: path, files: files}
		}
		return nil
	})
}

// parseDir parses the non-test Go files of one directory. Filenames handed to
// the FileSet are root-relative so every Diagnostic prints a stable path.
func (l *loader) parseDir(dir, imp string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		abs := filepath.Join(dir, name)
		src, err := os.ReadFile(abs)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(l.root, abs)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, filepath.ToSlash(rel), src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", abs, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one module package, recursively checking module-internal
// imports first.
func (l *loader) check(path string) (*Package, error) {
	if p, ok := l.done[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	pp := l.parsed[path]
	if pp == nil {
		return nil, fmt.Errorf("package %s not found under %s", path, l.root)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, pp.files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: pp.dir, Files: pp.files, Types: tpkg, Info: info}
	p.indexFuncs()
	l.done[path] = p
	return p, nil
}

func (l *loader) importPkg(path string) (*types.Package, error) {
	if path == l.mod || strings.HasPrefix(path, l.mod+"/") {
		p, err := l.check(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
