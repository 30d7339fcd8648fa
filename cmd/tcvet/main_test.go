package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestExitStatus holds tcvet to its exit-status contract on small
// modules written to a temp dir: 0 clean, 1 findings, 2 when the tree
// cannot be loaded or type-checked.
func TestExitStatus(t *testing.T) {
	const gomod = "module repro\n"
	cases := []struct {
		name  string
		files map[string]string
		want  int
		out   string // how stdout's one line starts, or "" for none
	}{
		{"clean", map[string]string{
			"go.mod":  gomod,
			"main.go": "package main\n\nfunc main() {}\n",
		}, 0, fmt.Sprintf("tcvet: ok (1 packages, %d analyzers)\n", len(analysis.Suite(analysis.Options{})))},
		{"finding", map[string]string{
			"go.mod":                   gomod,
			"internal/cluster/wait.go": "package cluster\n\nimport \"time\"\n\nfunc wait() { time.Sleep(time.Second) }\n",
		}, 1, "internal/cluster/wait.go:5:20: [bannedcall] time.Sleep in repro/internal/cluster: "},
		{"type error", map[string]string{
			"go.mod":  gomod,
			"main.go": "package main\n\nvar n int = \"one\"\n\nfunc main() {}\n",
		}, 2, ""},
		{"no go.mod", map[string]string{
			"main.go": "package main\n\nfunc main() {}\n",
		}, 2, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := writeModule(t, c.files)
			var stdout, stderr bytes.Buffer
			if got := run(root, &stdout, &stderr); got != c.want {
				t.Errorf("exit status %d, want %d; stdout:\n%s\nstderr:\n%s", got, c.want, stdout.String(), stderr.String())
			}
			lines := 0
			if c.out != "" {
				lines = 1
			}
			if got := stdout.String(); !strings.HasPrefix(got, c.out) || strings.Count(got, "\n") != lines {
				t.Errorf("stdout:\n%s\nwant one line starting with:\n%s", got, c.out)
			}
		})
	}
}

// TestLoadFailureReportedOnce: a planted import cycle (a → b → a, with
// c importing a and the main package importing c) is reported once, on
// the package that closes it, naming the cycle; every package that
// fails only through an import gets one short line naming that import,
// not the chain beneath it. The exit status stays 2.
func TestLoadFailureReportedOnce(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":            "module repro\n",
		"README.md":         "",
		"main.go":           "package main\n\nimport \"repro/internal/c\"\n\nvar _ = c.Z\n\nfunc main() {}\n",
		"internal/a/a.go":   "package a\n\nimport \"repro/internal/b\"\n\nvar X = b.Y\n",
		"internal/b/b.go":   "package b\n\nimport \"repro/internal/a\"\n\nvar Y = 1\n\nfunc f() int { return a.X }\n",
		"internal/c/c.go":   "package c\n\nimport \"repro/internal/a\"\n\nvar Z = a.X\n",
		"internal/d/d.go":   "package d\n\nvar W = 2\n",
		"internal/d/use.go": "package d\n\nfunc g() int { return W }\n",
	})
	var stdout, stderr bytes.Buffer
	if got := run(root, &stdout, &stderr); got != 2 {
		t.Fatalf("exit status %d, want 2; stderr:\n%s", got, stderr.String())
	}
	want := []string{
		"tcvet: analysis: repro not type-checked: its import repro/internal/c failed",
		"tcvet: analysis: repro/internal/a not type-checked: its import repro/internal/b failed",
		"tcvet: analysis: type-checking repro/internal/b: import cycle repro/internal/a → repro/internal/b → repro/internal/a",
		"tcvet: analysis: repro/internal/c not type-checked: its import repro/internal/a failed",
		"tcvet: 4 package(s) failed to load",
	}
	if got := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n"); !slices.Equal(got, want) {
		t.Errorf("stderr:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// writeModule writes files, by slash-separated path, under a new temp
// dir and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}
