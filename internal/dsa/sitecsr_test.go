package dsa_test

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// TestSiteCSRMatchesReference holds every site's CSR — from Build, from
// Apply with a batch that changes edges and one whose ops cancel out,
// and from a TCSF round trip — to the search graph built the long way:
// the fragment's induced subgraph plus an AddEdge per edge of each of
// the site's complementary tables, snapshotted by Graph.CSR. Row order
// within a node may differ; the ids and each row's multiset of
// (head, weight) may not.
func TestSiteCSRMatchesReference(t *testing.T) {
	for _, tp := range []struct {
		name  string
		build func() (*fragment.Fragmentation, error)
	}{
		{"grid-linear", func() (*fragment.Fragmentation, error) {
			g, err := gen.Grid(gen.GridConfig{Width: 8, Height: 6, DiagonalProb: 0.2, Seed: 3})
			if err != nil {
				return nil, err
			}
			res, err := linear.Fragment(g, linear.Options{NumFragments: 3})
			if err != nil {
				return nil, err
			}
			return res.Fragmentation, nil
		}},
		{"transport-center", func() (*fragment.Fragmentation, error) {
			g, err := gen.Transportation(gen.TransportConfig{Clusters: 3, Cluster: gen.Defaults(7, 5)})
			if err != nil {
				return nil, err
			}
			return center.Fragment(g, center.Options{NumFragments: 3, Distributed: true})
		}},
	} {
		t.Run(tp.name, func(t *testing.T) {
			fr, err := tp.build()
			if err != nil {
				t.Fatal(err)
			}
			st, err := dsa.Build(fr, dsa.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkSiteCSRs(t, "build", st)

			f0, f1 := fr.Fragment(0), fr.Fragment(1)
			n0 := f0.Nodes()
			light := graph.Edge{From: n0[0], To: n0[len(n0)-1], Weight: 0.5}
			changed, stats, err := st.Apply(context.Background(), []dsa.EdgeOp{
				{Kind: dsa.OpInsert, Frag: 0, Edge: light},
				{Kind: dsa.OpDelete, Frag: 1, Edge: f1.Edges[0]},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(stats.SitesRebuilt) < 2 {
				t.Fatalf("changing batch rebuilt sites %v, want at least 0 and 1", stats.SitesRebuilt)
			}
			checkSiteCSRs(t, "changing apply", changed)

			heavy := graph.Edge{From: n0[0], To: n0[len(n0)/2], Weight: 1e9}
			cancelled, stats, err := changed.Apply(context.Background(), []dsa.EdgeOp{
				{Kind: dsa.OpInsert, Frag: 0, Edge: heavy},
				{Kind: dsa.OpDelete, Frag: 0, Edge: heavy},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(stats.SitesRebuilt) != 0 {
				t.Fatalf("cancelling batch rebuilt sites %v, want none", stats.SitesRebuilt)
			}
			checkSiteCSRs(t, "cancelling apply", cancelled)

			data, err := store.Encode(cancelled)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := store.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			checkSiteCSRs(t, "TCSF restore", restored)
		})
	}
}

// checkSiteCSRs fails t unless every site of st holds the reference CSR.
func checkSiteCSRs(t *testing.T, what string, st *dsa.Store) {
	t.Helper()
	base := st.Fragmentation().Base()
	for _, site := range st.Sites() {
		ref := site.Frag.Subgraph(base)
		for _, ci := range site.Comp {
			for _, e := range ci.Cost {
				ref.AddEdge(e)
			}
		}
		if err := sameCSR(dsa.SiteCSR(site), ref.CSR()); err != nil {
			t.Errorf("%s: site %d: %v", what, site.ID, err)
		}
	}
}

// sameCSR reports how got differs from want in its ids or in the
// multiset of (head, weight) of any row.
func sameCSR(got, want *graph.CSR) error {
	if !slices.Equal(got.IDs, want.IDs) {
		return fmt.Errorf("ids %v, want %v", got.IDs, want.IDs)
	}
	type arc struct {
		to graph.NodeID
		w  float64
	}
	row := func(c *graph.CSR, k int) []arc {
		var arcs []arc
		for j := c.Off[k]; j < c.Off[k+1]; j++ {
			arcs = append(arcs, arc{c.IDs[c.To[j]], c.W[j]})
		}
		slices.SortFunc(arcs, func(a, b arc) int { return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.w, b.w)) })
		return arcs
	}
	for k, id := range want.IDs {
		if g, w := row(got, k), row(want, k); !slices.Equal(g, w) {
			return fmt.Errorf("row of %d: %v, want %v", id, g, w)
		}
	}
	return nil
}
