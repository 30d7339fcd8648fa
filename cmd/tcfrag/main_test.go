package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fragment"
	"repro/internal/graph"
)

// TestSummaryListsDisconnectionSetsInOrder: on a path of 12 fragments,
// one edge each, the summary names the 11 disconnection sets
// DS<I>-<J>, in (I, J) order, and prints the same bytes every time —
// the sets live in a map, whose iteration order changes from run to
// run.
func TestSummaryListsDisconnectionSetsInOrder(t *testing.T) {
	const k = 12
	g := graph.New()
	sets := make([][]graph.Edge, k)
	for i := range sets {
		e := graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1), Weight: 1}
		g.AddEdge(e)
		sets[i] = []graph.Edge{e}
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	var first, again bytes.Buffer
	summary(&first, fr)
	summary(&again, fr)
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Errorf("two summaries differ:\n%s\n---\n%s", first.String(), again.String())
	}
	var got, want []string
	for _, line := range strings.Split(first.String(), "\n") {
		if strings.HasPrefix(line, "  DS") {
			got = append(got, line)
		}
	}
	for i := 0; i+1 < k; i++ {
		want = append(want, fmt.Sprintf("  DS%d-%d: 1 nodes", i, i+1))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("disconnection-set lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
