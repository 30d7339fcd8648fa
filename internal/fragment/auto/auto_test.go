package auto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func testGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Transportation(gen.TransportConfig{Clusters: 4, Cluster: gen.Defaults(15, seed)})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChooseValidation(t *testing.T) {
	g := testGraph(t, 1)
	if _, err := Choose(nil, 4, DefaultWeights(), 1); err == nil {
		t.Error("nil graph accepted")
	}
	empty := graph.New()
	empty.AddNode(1, graph.Coord{})
	if _, err := Choose(empty, 4, DefaultWeights(), 1); err == nil {
		t.Error("edgeless graph accepted")
	}
	if _, err := Choose(g, 0, DefaultWeights(), 1); err == nil {
		t.Error("zero fragments accepted")
	}
	if _, err := Choose(g, 4, Weights{DS: -1}, 1); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := Choose(g, 4, Weights{}, 1); err == nil {
		t.Error("all-zero weights accepted")
	}
}

func TestChooseReturnsAllThreeSorted(t *testing.T) {
	g := testGraph(t, 3)
	cands, err := Choose(g, 4, DefaultWeights(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("candidates = %d, want 3", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score < cands[i-1].Score {
			t.Errorf("candidates not sorted: %v", cands)
		}
	}
	names := map[string]bool{}
	for _, c := range cands {
		names[c.Name] = true
		if c.Fragmentation == nil {
			t.Errorf("%s: nil fragmentation", c.Name)
		}
		if math.IsNaN(c.Score) || c.Score < 0 {
			t.Errorf("%s: score = %v", c.Name, c.Score)
		}
	}
	for _, want := range []string{"center-based", "bond-energy", "linear"} {
		if !names[want] {
			t.Errorf("missing candidate %q", want)
		}
	}
}

func TestWeightsSteerTheChoice(t *testing.T) {
	// Pure-DS weighting must pick the candidate with the smallest DS;
	// pure-cycles weighting one with zero cycles (linear qualifies by
	// construction).
	g := testGraph(t, 7)
	all, err := Choose(g, 4, Weights{DS: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	dsBest := all[0]
	for _, c := range all {
		if c.C.DS < dsBest.C.DS {
			t.Errorf("DS weighting picked %s (DS %.1f) over %s (DS %.1f)",
				dsBest.Name, dsBest.C.DS, c.Name, c.C.DS)
		}
	}
	byCycles, err := Choose(g, 4, Weights{Cycles: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cycBest := byCycles[0]
	if cycBest.C.Cycles != 0 {
		t.Errorf("cycles weighting picked %s with %d cycles", cycBest.Name, cycBest.C.Cycles)
	}
}

func TestChooseFiltersDegenerateCandidates(t *testing.T) {
	// On a 3-cluster ring every cluster has 4 external connections, so
	// BEA's default threshold 3 never splits — a single-fragment
	// candidate that must not win (it provides no parallelism).
	g, err := gen.Transportation(gen.TransportConfig{Clusters: 3, Cluster: gen.Defaults(12, 9)})
	if err != nil {
		t.Fatal(err)
	}
	cands, err := Choose(g, 3, DefaultWeights(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.C.NumFragments == 1 {
			t.Errorf("degenerate single-fragment candidate %s survived", c.Name)
		}
	}
}

func TestDefaultWeights(t *testing.T) {
	w := DefaultWeights()
	if w.DS <= w.Balance || w.DS <= w.Cycles {
		t.Errorf("default weights should lean on DS (§4.2.3): %+v", w)
	}
}

// TestPropertyBestIsParetoReasonable: the winner never loses on every
// single goal to another candidate (it cannot be strictly dominated,
// since a dominated candidate scores worse on every term).
func TestPropertyBestIsParetoReasonable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.Transportation(gen.TransportConfig{
			Clusters: 2 + rng.Intn(3),
			Cluster:  gen.Defaults(8+rng.Intn(6), seed),
		})
		if err != nil {
			return false
		}
		cands, err := Choose(g, 3, DefaultWeights(), seed)
		if err != nil {
			return false
		}
		best := cands[0]
		relBal := func(c Candidate) float64 {
			if c.C.F == 0 {
				return 0
			}
			return c.C.AF / c.C.F
		}
		for _, c := range cands[1:] {
			if c.C.DS < best.C.DS-1e-9 &&
				relBal(c) < relBal(best)-1e-9 &&
				c.C.Cycles < best.C.Cycles {
				return false // strictly dominated winner
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
