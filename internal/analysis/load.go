package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The loader: walks a module tree, parses every non-test package, and
// type-checks on demand. Intra-module imports are resolved by loading
// the imported directory recursively; everything else (the stdlib)
// goes through the gc source importer, so the whole pipeline stays on
// the standard library — no export-data files, no x/tools.

// Package is one loaded module package.
type Package struct {
	// Path is the import path ("repro/internal/cluster").
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Fset is the loader-wide file set.
	Fset *token.FileSet
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info are populated by Check; nil until then (and nil
	// if type-checking failed — the load error records why).
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks the packages of one module.
type Loader struct {
	// Root is the absolute module root (the directory holding go.mod).
	Root string
	// Module is the module path from go.mod.
	Module string

	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*Package // by import path; nil value = load failed
	loadErrs map[string]error
	checked  map[string]*types.Package
	checking []string // the import paths being checked, importer first
}

// NewLoader locates the module root at or above dir and prepares a
// loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:     root,
		Module:   mod,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*Package{},
		loadErrs: map[string]error{},
		checked:  map[string]*types.Package{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(strings.Trim(strings.TrimSpace(rest), `"`))
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// LoadAll discovers and parses every package under the module root,
// skipping testdata, hidden and VCS directories. It returns the
// packages sorted by import path; parse failures abort (an unparsable
// tree cannot be vetted).
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// importPathFor maps an absolute module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses the non-test Go files of one directory into a
// Package registered under the directory's import path, or returns nil
// if the directory holds none.
func (l *Loader) parseDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, l.loadErrs[path]
	}
	pkg, err := l.parseFiles(dir, path)
	l.pkgs[path] = pkg
	if err != nil {
		l.loadErrs[path] = err
	}
	return pkg, err
}

// LoadDirAs parses a directory's files under an assumed import path —
// how the golden-fixture tests present testdata packages to analyzers
// whose rules are scoped by package path (a fixture living in
// testdata/src/... analyzes as if it were repro/internal/cluster). The
// package stays out of the loader's index: the real package of that
// path still answers imports, and one fixture directory can be loaded
// under several paths.
func (l *Loader) LoadDirAs(dir, asPath string) (*Package, error) {
	pkg, err := l.parseFiles(dir, asPath)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return pkg, nil
}

// parseFiles parses dir's non-test files into a Package of import path
// path, or returns nil if the directory holds none.
func (l *Loader) parseFiles(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		// Honor build constraints (//go:build lines and _goos/_goarch
		// file suffixes) for the host platform, exactly like the real
		// build: per-platform variants of one symbol would otherwise
		// type-check as redeclarations.
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset}
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	return pkg, nil
}

// Check type-checks pkg (and, transitively, every package it
// imports), populating pkg.Types and pkg.Info. Errors are returned
// once per package and leave pkg.Types nil: a package's own failure
// in full, and a package whose module import failed — which is not
// type-checked at all — as one short line naming that import. A
// package from LoadDirAs is checked on its own: nothing imports it.
func (l *Loader) Check(pkg *Package) error {
	if pkg.Types != nil {
		return nil
	}
	if l.pkgs[pkg.Path] != pkg {
		return l.typeCheck(pkg)
	}
	_, err := l.check(pkg.Path)
	return err
}

// check resolves one import path to a type-checked package.
func (l *Loader) check(path string) (*types.Package, error) {
	if tp, ok := l.checked[path]; ok {
		return tp, l.loadErrs["check:"+path]
	}
	if i := slices.Index(l.checking, path); i >= 0 {
		return nil, fmt.Errorf("import cycle %s", strings.Join(append(l.checking[i:], path), " → "))
	}
	pkg := l.pkgs[path]
	if pkg == nil {
		// Not parsed yet: resolve the directory from the import path.
		rel := strings.TrimPrefix(path, l.Module)
		dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
		var err error
		pkg, err = l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go files for %s", path)
		}
	}
	l.checking = append(l.checking, path)
	err := l.typeCheck(pkg)
	l.checking = l.checking[:len(l.checking)-1]
	l.checked[path] = pkg.Types
	if err != nil {
		l.loadErrs["check:"+path] = err
	}
	return pkg.Types, err
}

// typeCheck type-checks pkg's files under pkg.Path, resolving module
// imports through check and the rest through the stdlib importer. The
// module imports are checked first: if one failed to type-check, pkg
// is not, and the error names that import alone — its own error is
// reported once, by its own package.
func (l *Loader) typeCheck(pkg *Package) error {
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if path != l.Module && !strings.HasPrefix(path, l.Module+"/") {
				continue
			}
			if _, err := l.check(path); err != nil {
				if l.loadErrs["check:"+path] != nil {
					return fmt.Errorf("analysis: %s not type-checked: its import %s failed", pkg.Path, path)
				}
				return fmt.Errorf("analysis: type-checking %s: %v", pkg.Path, err)
			}
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tp, _ := conf.Check(pkg.Path, l.fset, pkg.Files, info)
	if len(typeErrs) > 0 {
		return fmt.Errorf("analysis: type-checking %s: %v", pkg.Path, typeErrs[0])
	}
	pkg.Types = tp
	pkg.Info = info
	return nil
}

// importPkg resolves an import path to its type-checked package:
// module packages through check, the rest through the stdlib importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		return l.check(path)
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
