package dsa

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/relation"
)

// tupleKeys renders a relation as a sorted multiset of tuple keys, the
// order-insensitive equality the cache-vs-direct comparison needs.
func tupleKeys(r *relation.Relation) string {
	keys := make([]string, 0, r.Len())
	for _, t := range r.Tuples() {
		keys = append(keys, t.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestExecuteLegFullMatchesExecuteLeg is the contract the serving
// layer's leg-result cache rests on: ExecuteLegFullCtx + FilterLegFacts
// must produce exactly the facts ExecuteLegCtx computes directly, for
// every engine and every leg of real plans.
func TestExecuteLegFullMatchesExecuteLeg(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		rng := rand.New(rand.NewSource(seed))
		st, g, err := buildLinearStore(seed, 3, 10, 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nodes := g.Nodes()
		for q := 0; q < 5; q++ {
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			plan, err := st.NewPlan(src, dst)
			if err != nil {
				t.Fatalf("seed %d: plan %d->%d: %v", seed, src, dst, err)
			}
			for _, leg := range plan.Legs {
				for _, engine := range []Engine{EngineDijkstra, EngineSemiNaive, EngineBitset} {
					direct, err := st.ExecuteLegCtx(context.Background(), leg, engine)
					if err != nil {
						t.Fatalf("ExecuteLeg(%v, %v): %v", leg, engine, err)
					}
					full, _, err := st.ExecuteLegFullCtx(context.Background(), leg.SiteID, leg.Entry, engine)
					if err != nil {
						t.Fatalf("ExecuteLegFull(%d, %v, %v): %v", leg.SiteID, leg.Entry, engine, err)
					}
					filtered, err := FilterLegFacts(full, leg)
					if err != nil {
						t.Fatalf("FilterLegFacts: %v", err)
					}
					if got, want := tupleKeys(filtered), tupleKeys(direct.Rel); got != want {
						t.Errorf("seed %d engine %v leg %+v:\nfull+filter:\n%s\ndirect:\n%s",
							seed, engine, leg, got, want)
					}
				}
			}
		}
	}
}

func TestExecuteLegFullValidation(t *testing.T) {
	st, _ := pathStore(t)
	if _, _, err := st.ExecuteLegFullCtx(context.Background(), -1, nil, EngineDijkstra); err == nil {
		t.Error("negative site accepted")
	}
	if _, _, err := st.ExecuteLegFullCtx(context.Background(), 99, nil, EngineDijkstra); err == nil {
		t.Error("out-of-range site accepted")
	}
	if _, _, err := st.ExecuteLegFullCtx(context.Background(), 0, nil, Engine(42)); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestEpochAdvancesOnUpdate pins the invalidation signal the serving
// layer's cache keys on.
func TestEpochAdvancesOnUpdate(t *testing.T) {
	st, _ := pathStore(t)
	if st.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d, want 0", st.Epoch())
	}
	e := graph.Edge{From: 0, To: 2, Weight: 1}
	ctx := context.Background()
	st1, _, err := st.Apply(ctx, []EdgeOp{{Kind: OpInsert, Frag: 0, Edge: e}})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Epoch() != 1 {
		t.Fatalf("epoch after insert = %d, want 1", st1.Epoch())
	}
	st2, _, err := st1.Apply(ctx, []EdgeOp{{Kind: OpDelete, Frag: 0, Edge: e}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Epoch() != 2 {
		t.Fatalf("epoch after delete = %d, want 2", st2.Epoch())
	}
	// A refused update yields no store, so no epoch advances.
	if next, _, err := st2.Apply(ctx, []EdgeOp{{Kind: OpDelete, Frag: 0, Edge: e}}); err == nil || next != nil {
		t.Fatal("double delete accepted")
	}
	if st.Epoch() != 0 || st1.Epoch() != 1 || st2.Epoch() != 2 {
		t.Fatalf("epochs drifted: %d %d %d, want 0 1 2", st.Epoch(), st1.Epoch(), st2.Epoch())
	}
}
