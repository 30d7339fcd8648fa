package main

import (
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
