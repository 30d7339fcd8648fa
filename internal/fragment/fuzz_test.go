package fragment

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// FuzzRead feeds arbitrary text to the fragmentation parser over a
// fixed base graph: it must never panic, and anything it accepts must
// be a valid partition (New validates internally, so acceptance implies
// the invariants hold; we re-check the edge count anyway).
func FuzzRead(f *testing.F) {
	f.Add("fragment 0 0 1 1\nfragment 1 1 2 1\n")
	f.Add("# comment\nfragment 0 0 1 1\nfragment 0 1 2 1\n")
	f.Add("fragment 0 9 9 9\n")
	f.Add("fragment -1 0 1 1\n")
	f.Add("fragment 4611686018427387903 1 2 1\n")
	f.Add("garbage\n")
	base := graph.New()
	base.AddEdge(graph.Edge{From: 0, To: 1, Weight: 1})
	base.AddEdge(graph.Edge{From: 1, To: 2, Weight: 1})
	f.Fuzz(func(t *testing.T, input string) {
		fr, err := Read(base, strings.NewReader(input))
		if err != nil {
			return
		}
		total := 0
		for _, frag := range fr.Fragments() {
			total += frag.Size()
		}
		if total != base.NumEdges() {
			t.Fatalf("accepted partition covers %d of %d edges", total, base.NumEdges())
		}
	})
}
