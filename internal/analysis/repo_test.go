package analysis

import (
	"os"
	"path/filepath"
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
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
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
