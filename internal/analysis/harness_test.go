package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The golden-fixture harness. Each fixture package under
// testdata/src/<name> is parsed under an ASSUMED import path — that is
// how path-scoped analyzers (typederr, importboundary, bannedcall,
// keyedmap) are made to see the package they police without the
// fixture living inside it. Expectations are written in the fixture
// source as
//
//	some.Violation() // want "substring" ["substring" ...]
//
// trailing comments; the harness reconciles analyzer output against
// them in both directions, so a fixture that stops triggering and an
// analyzer that over-reports both fail.

var wantQuoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// sharedLoader is the one loader of every fixture and of the tests
// over the tree, so the stdlib and the module packages are
// type-checked once per test binary. A fixture is parsed under its assumed path without entering
// the loader's index (LoadDirAs), so fixtures may share a path, and a
// fixture loaded as repro/internal/dsa does not shadow the real dsa
// another fixture imports.
var (
	sharedLoaderOnce sync.Once
	sharedLoaderVal  *Loader
	sharedLoaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	sharedLoaderOnce.Do(func() {
		sharedLoaderVal, sharedLoaderErr = NewLoader(".")
	})
	if sharedLoaderErr != nil {
		t.Fatalf("NewLoader: %v", sharedLoaderErr)
	}
	return sharedLoaderVal
}

func loadFixture(t *testing.T, name, asPath string, typed bool) *Package {
	t.Helper()
	l := sharedLoader(t)
	pkg, err := l.LoadDirAs(filepath.Join("testdata", "src", name), asPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if typed {
		if err := l.Check(pkg); err != nil {
			t.Fatalf("type-check fixture %s: %v", name, err)
		}
	}
	return pkg
}

// fixtureWants extracts the expectations, keyed "file.go:line".
func fixtureWants(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				quoted := wantQuoted.FindAllString(rest, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s: want comment carries no quoted expectation", key)
				}
				for _, q := range quoted {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: malformed want expectation %s: %v", key, q, err)
					}
					wants[key] = append(wants[key], s)
				}
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over a fixture package and reconciles
// its raw diagnostics against the want comments.
func checkFixture(t *testing.T, a *Analyzer, pkg *Package) {
	t.Helper()
	wants := fixtureWants(t, pkg)
	for _, d := range runAnalyzer(a, pkg) {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		ws := wants[key]
		matched := -1
		for i, w := range ws {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", key, d.Analyzer, d.Message)
			continue
		}
		wants[key] = append(ws[:matched], ws[matched+1:]...)
		if len(wants[key]) == 0 {
			delete(wants, key)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			t.Errorf("missing diagnostic at %s: want message containing %q", key, w)
		}
	}
}
