package dsa

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/relation"
)

// referenceAssemble is the relational assembly phase the min-plus fold
// in FinishPlan replaced — a running (node, cost) relation joined with
// each leg relation in turn and min-aggregated — kept verbatim as the
// oracle the fold is compared against.
func referenceAssemble(plan *Plan, results []*LegResult) (*Result, error) {
	out := &Result{Cost: math.Inf(1)}
	for ci, chain := range plan.Chains {
		cost, ok, err := referenceAssembleChain(plan, results, ci, &out.Assembly)
		if err != nil {
			return nil, err
		}
		if ok && cost < out.Cost {
			out.Cost = cost
			out.BestChain = chain
			out.Reachable = true
		}
	}
	return out, nil
}

func referenceAssembleChain(plan *Plan, results []*LegResult, ci int, stats *AssemblyStats) (float64, bool, error) {
	vec := relation.New("node", "cost")
	vec.MustInsert(relation.Tuple{int64(plan.Source), 0.0})
	for _, li := range plan.chainLegs[ci] {
		lr := results[li]
		if lr == nil {
			return 0, false, fmt.Errorf("dsa: assemble: missing result for leg %d", li)
		}
		if lr.Rel.Len() > stats.MaxOperand {
			stats.MaxOperand = lr.Rel.Len()
		}
		if vec.Len() > stats.MaxOperand {
			stats.MaxOperand = vec.Len()
		}
		legRel, err := lr.Rel.Rename("node", "next", "step")
		if err != nil {
			return 0, false, err
		}
		joined, err := vec.Join(legRel, []string{"node"}, []string{"node"})
		if err != nil {
			return 0, false, err
		}
		stats.Joins++
		next := relation.New("node", "cost")
		for _, t := range joined.Tuples() {
			next.MustInsert(relation.Tuple{t[2], t[1].(float64) + t[3].(float64)})
		}
		vec, err = next.MinBy("cost", "node")
		if err != nil {
			return 0, false, err
		}
		if vec.Len() == 0 {
			return 0, false, nil // chain broken: no path through this DS
		}
	}
	at, err := vec.SelectEq("node", int64(plan.Target))
	if err != nil {
		return 0, false, err
	}
	cost, ok, err := at.MinValue("cost")
	if err != nil {
		return 0, false, err
	}
	return cost, ok, nil
}

// foldMatchesReference executes the legs of the src→dst plan with
// engine and reports whether FinishPlan's fold and the relational
// reference agree exactly — same cost bits, same winning chain, same
// join and operand counts.
func foldMatchesReference(st *Store, src, dst graph.NodeID, engine Engine) (bool, error) {
	plan, err := st.NewPlan(src, dst)
	if err != nil {
		return false, err
	}
	res, done := st.PlanResult(plan)
	if done {
		return true, nil
	}
	results := make([]*LegResult, len(plan.Legs))
	for i, leg := range plan.Legs {
		if results[i], err = st.ExecuteLegCtx(context.Background(), leg, engine); err != nil {
			return false, err
		}
	}
	if err := st.FinishPlan(plan, results, res); err != nil {
		return false, err
	}
	want, err := referenceAssemble(plan, results)
	if err != nil {
		return false, err
	}
	return res.Cost == want.Cost && res.Reachable == want.Reachable &&
		slices.Equal(res.BestChain, want.BestChain) && res.Assembly == want.Assembly, nil
}
