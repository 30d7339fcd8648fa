package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
			root := t.TempDir()
			for name, src := range c.files {
				path := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
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
