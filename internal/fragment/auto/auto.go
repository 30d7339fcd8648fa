// Package auto chooses a fragmentation by running every §3 algorithm
// and scoring the candidates against the paper's three (conflicting)
// design goals — small disconnection sets, balanced fragment sizes, and
// an acyclic fragmentation graph (§2.2).
//
// The paper's conclusion leaves the choice open: "It may well be the
// case that the actual algorithm to be used for data fragmentation
// depends on the type of graph that is considered, and on the specific
// characteristics of the underlying database system." This package
// operationalises that: the database system's characteristics become a
// weight vector, the type of graph is handled by measuring actual
// candidates rather than predicting.
package auto

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fragment"
	"repro/internal/fragment/bea"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/graph"
)

// Weights expresses how much the deployment cares about each §2.2
// goal. Weights need not sum to one; only ratios matter. Zero weights
// ignore a goal entirely.
type Weights struct {
	// DS penalises large disconnection sets (selectivity of the
	// per-fragment searches; favoured when the query optimiser lacks
	// good selection pushing).
	DS float64
	// Balance penalises unequal fragment sizes (processor idling;
	// "if the underlying database system has a good support of
	// pipelining … the issue of fragment size may become less
	// relevant").
	Balance float64
	// Cycles penalises cyclic fragmentation graphs (chain-enumeration
	// cost; irrelevant when parallel hierarchical evaluation is
	// available).
	Cycles float64
}

// DefaultWeights reflects the paper's own §4.2.3 lean: "we believe that
// small disconnection sets will be the main factor".
func DefaultWeights() Weights { return Weights{DS: 0.5, Balance: 0.3, Cycles: 0.2} }

// Candidate is one evaluated fragmentation.
type Candidate struct {
	// Name identifies the producing algorithm.
	Name string
	// Fragmentation is the produced partition.
	Fragmentation *fragment.Fragmentation
	// C is its measured characteristics.
	C fragment.Characteristics
	// Score is the weighted, candidate-normalised badness; lower wins.
	Score float64
}

// Choose runs the three algorithms (center-based with distributed
// centers, bond-energy, linear) on g, measures each result, and returns
// the candidates sorted best-first under the weights. Metrics are
// normalised across the candidate set (value / max), making the score
// dimensionless and graph-size independent.
func Choose(g *graph.Graph, numFragments int, w Weights, seed int64) ([]Candidate, error) {
	if g == nil || g.NumEdges() == 0 {
		return nil, fmt.Errorf("auto: graph must have edges")
	}
	if numFragments <= 0 {
		return nil, fmt.Errorf("auto: numFragments must be positive, got %d", numFragments)
	}
	if w.DS < 0 || w.Balance < 0 || w.Cycles < 0 {
		return nil, fmt.Errorf("auto: weights must be non-negative, got %+v", w)
	}
	if w.DS+w.Balance+w.Cycles == 0 {
		return nil, fmt.Errorf("auto: at least one weight must be positive")
	}

	var cands []Candidate
	if fr, err := center.Fragment(g, center.Options{
		NumFragments: numFragments, Distributed: true, Seed: seed,
	}); err == nil {
		cands = append(cands, Candidate{Name: "center-based", Fragmentation: fr})
	}
	if fr, err := bea.Fragment(g, bea.Options{Threshold: 3}); err == nil {
		cands = append(cands, Candidate{Name: "bond-energy", Fragmentation: fr})
	}
	if res, err := linear.Fragment(g, linear.Options{NumFragments: numFragments}); err == nil {
		cands = append(cands, Candidate{Name: "linear", Fragmentation: res.Fragmentation})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("auto: no algorithm produced a fragmentation")
	}
	for i := range cands {
		cands[i].C = fragment.Measure(cands[i].Fragmentation)
	}
	// A single-fragment result offers no parallelism at all — the whole
	// point of fragmenting (§2.1). Drop such degenerate candidates when
	// the caller asked for more, unless nothing else remains.
	if numFragments > 1 {
		kept := cands[:0]
		for _, c := range cands {
			if c.C.NumFragments > 1 {
				kept = append(kept, c)
			}
		}
		if len(kept) > 0 {
			cands = kept
		}
	}

	// Normalise each metric by the candidate maximum so weights compare
	// like against like. Balance uses AF/F (relative deviation); DS the
	// mean set size; Cycles the circuit rank.
	var maxDS, maxBal, maxCyc float64
	rel := func(c fragment.Characteristics) (ds, bal, cyc float64) {
		ds = c.DS
		if c.F > 0 {
			bal = c.AF / c.F
		}
		cyc = float64(c.Cycles)
		return
	}
	for _, c := range cands {
		ds, bal, cyc := rel(c.C)
		maxDS = math.Max(maxDS, ds)
		maxBal = math.Max(maxBal, bal)
		maxCyc = math.Max(maxCyc, cyc)
	}
	norm := func(v, max float64) float64 {
		if max == 0 {
			return 0
		}
		return v / max
	}
	// A mild penalty for missing the requested fragment count keeps the
	// parallelism degree comparable across candidates (BEA and linear
	// control their counts only indirectly).
	wSum := w.DS + w.Balance + w.Cycles
	for i := range cands {
		ds, bal, cyc := rel(cands[i].C)
		miss := math.Abs(float64(cands[i].C.NumFragments-numFragments)) / float64(numFragments)
		cands[i].Score = w.DS*norm(ds, maxDS) + w.Balance*norm(bal, maxBal) +
			w.Cycles*norm(cyc, maxCyc) + 0.25*wSum*miss
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Score < cands[j].Score })
	return cands, nil
}
