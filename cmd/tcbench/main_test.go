package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArmTable: every listed name selects exactly its own runnable
// arm, the empty name selects all, and anything else — including the
// six engineering experiments that moved to benchmarks/ — is an error
// that lists the valid names instead of a silent no-op.
func TestArmTable(t *testing.T) {
	for _, c := range []struct {
		kind string
		arms []arm
	}{{"table", tables}, {"experiment", experiments}} {
		all, err := pick(c.kind, c.arms, "")
		if err != nil || len(all) != len(c.arms) {
			t.Errorf("%s \"\": got %d arms, err %v; want all %d", c.kind, len(all), err, len(c.arms))
		}
		for _, a := range c.arms {
			got, err := pick(c.kind, c.arms, a.name)
			if err != nil || len(got) != 1 || got[0].name != a.name || got[0].run == nil {
				t.Errorf("%s %q: got %v, err %v; want that one runnable arm", c.kind, a.name, got, err)
			}
		}
		for _, name := range []string{"typo", "engines", "cost", "serving", "updates", "cluster", "coldstart"} {
			_, err := pick(c.kind, c.arms, name)
			if err == nil {
				t.Errorf("%s %q accepted", c.kind, name)
				continue
			}
			for _, a := range c.arms {
				if !strings.Contains(err.Error(), a.name) {
					t.Errorf("%s %q: error %q does not list %q", c.kind, name, err, a.name)
				}
			}
		}
	}
}

// TestTableArmRuns drives one arm end to end at the smallest scale, so
// the table's adapters are exercised and not only its names.
func TestTableArmRuns(t *testing.T) {
	out, err := tables[0].run(params{trials: 1, queries: 1, seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") {
		t.Errorf("table 1 output lacks its title:\n%s", out)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// goldenParams is the scale the golden files were captured at:
// `tcbench -seed 42 -trials 2 -queries 5`.
var goldenParams = params{trials: 2, queries: 5, seed: 42}

// TestGolden pins the paper's arms — tables 1–3 and the §4 experiments
// — to the committed captures under testdata/: a refactor that shifts a
// speedup figure, an iteration count or a table cell fails here. Every
// arm's output is a pure function of its params except kconn's, whose
// cells are wall-clock times (it keeps TestArmTable's coverage only).
// After an intended change, `go test ./cmd/tcbench -update` rewrites
// the files.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		kind string
		arms []arm
	}{{"table", tables}, {"experiment", experiments}} {
		for _, a := range c.arms {
			if a.name == "kconn" {
				continue
			}
			t.Run(c.kind+"-"+a.name, func(t *testing.T) {
				got, err := a.run(goldenParams)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", c.kind+"-"+a.name+".golden")
				if *update {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("output differs from %s (rerun with -update if intended)\n--- got\n%s\n--- want\n%s", path, got, want)
				}
			})
		}
	}
}
