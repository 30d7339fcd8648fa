package analysis

import (
	"fmt"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRepoIsTCVetClean runs the full suite over the real module —
// the same gate cmd/tcvet gives CI, here so a plain `go test ./...`
// catches an invariant violation (or a rotted suppression) before a
// push. Skipped under -short: type-checking the tree from source
// takes tens of seconds.
func TestRepoIsTCVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree source type-check is slow; run without -short or use cmd/tcvet")
	}
	l := sharedLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadAll found no packages")
	}
	catalog, err := MetricCatalogFromReadme(filepath.Join(l.Root, "README.md"))
	if err != nil {
		t.Fatalf("reading metric catalog: %v", err)
	}
	for _, pkg := range pkgs {
		if err := l.Check(pkg); err != nil {
			t.Errorf("type-check %s: %v", pkg.Path, err)
		}
	}
	for _, d := range RunSuite(Suite(Options{MetricCatalog: catalog}), pkgs) {
		t.Errorf("%s", d)
	}
}

// TestSuiteDocumented holds the README's "Static analysis" section to
// the suite: every analyzer Suite returns is named there, back-ticked.
func TestSuiteDocumented(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(l.Root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Static analysis")
	if !ok {
		t.Fatal(`README.md has no "## Static analysis" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, a := range Suite(Options{}) {
		if !strings.Contains(section, "`"+a.Name+"`") {
			t.Errorf("README's Static analysis section does not name analyzer `%s`", a.Name)
		}
	}
}

// TestRuleTablesResolve holds the rule tables to the tree: every
// function and key type they name resolves, and every package, subtree
// and file they name exists. A renamed function or a moved package
// would otherwise turn its rule into a silent no-op.
func TestRuleTablesResolve(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	dirs := map[string]string{}
	for _, p := range pkgs {
		dirs[p.Path] = p.Dir
	}
	exists := func(pat string) bool {
		if strings.HasSuffix(pat, "/...") {
			return slices.ContainsFunc(pkgs, func(p *Package) bool { return scope{pat}.has(p.Path, "") })
		}
		if _, ok := dirs[pat]; ok {
			return true
		}
		if dir, file := path.Split(pat); dirs[path.Clean(dir)] != "" && strings.HasSuffix(file, ".go") {
			_, err := os.Stat(filepath.Join(dirs[path.Clean(dir)], file))
			return err == nil
		}
		if strings.HasPrefix(pat, l.Module) {
			return false
		}
		_, err := l.importPkg(pat) // a stdlib package
		return err == nil
	}
	var patterns []string
	for _, r := range slices.Concat(bannedCalls, importBoundaries) {
		for _, fn := range r.funcs {
			if obj, err := lookupFunc(l, fn); err != nil {
				t.Errorf("rule %q: %v", r.msg, err)
			} else if got, _ := funcName(obj); got != fn {
				t.Errorf("rule %q: %s resolves to %v, not a function of that name", r.msg, fn, obj)
			}
		}
		patterns = slices.Concat(patterns, r.imports, r.scope, r.exempt)
	}
	for _, r := range keyedMaps {
		patterns = append(patterns, r.scope...)
		for _, key := range r.keys {
			dot := strings.LastIndex(key, ".")
			if pkg, err := l.importPkg(key[:dot]); err != nil || pkg.Scope().Lookup(key[dot+1:]) == nil {
				t.Errorf("keyed-map rule %q: key type %s does not resolve", r.msg, key)
			}
		}
	}
	for _, pat := range patterns {
		if !exists(pat) {
			t.Errorf("rule pattern %q names no package or file of the tree", pat)
		}
	}
}

// lookupFunc finds the object a rule's function name (funcName's form)
// names: a package-level function, or a method of a named type.
func lookupFunc(l *Loader, name string) (types.Object, error) {
	qual, method, isMethod := strings.Cut(name, ").")
	qual = strings.TrimLeft(qual, "(*")
	dot := strings.LastIndex(qual, ".")
	if dot < 0 {
		return nil, fmt.Errorf("%s is not a qualified name", name)
	}
	pkg, err := l.importPkg(qual[:dot])
	if err != nil {
		return nil, err
	}
	obj := pkg.Scope().Lookup(qual[dot+1:])
	if obj != nil && isMethod {
		obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, pkg, method)
	}
	if obj == nil {
		return nil, fmt.Errorf("%s does not resolve", name)
	}
	return obj, nil
}
