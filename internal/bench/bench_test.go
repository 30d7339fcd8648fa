package bench

import (
	"strings"
	"testing"
)

// The experiment harness is itself what regenerates the paper's
// numbers, so these tests assert the qualitative *shape* of each table
// and claim — who wins which column — on small batches. The full-size
// runs live in the repository-root benchmarks and cmd/tcbench.

func rowByName(t *testing.T, tbl *Table, name string) Row {
	t.Helper()
	for _, r := range tbl.Rows {
		if r.Algorithm == name {
			return r
		}
	}
	t.Fatalf("table has no row %q", name)
	return Row{}
}

func TestTable1Shape(t *testing.T) {
	tbl, err := Table1(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	bea := rowByName(t, tbl, "bond-energy")
	lin := rowByName(t, tbl, "linear")
	cen := rowByName(t, tbl, "center-based")
	// §4.2.3: bond-energy has the smallest disconnection sets, linear
	// the largest; linear is acyclic.
	if !(bea.C.DS < cen.C.DS && cen.C.DS < lin.C.DS) {
		t.Errorf("DS order wrong: bea %.1f, center %.1f, linear %.1f", bea.C.DS, cen.C.DS, lin.C.DS)
	}
	if lin.C.Cycles != 0 {
		t.Errorf("linear cycles = %d, want 0", lin.C.Cycles)
	}
	// Bond-energy pays with fragment-size variance.
	if bea.C.AF <= cen.C.AF {
		t.Errorf("bond-energy AF %.1f should exceed center-based %.1f", bea.C.AF, cen.C.AF)
	}
	// The generator is in the paper's regime (429 edges reported).
	if tbl.AvgEdges < 300 || tbl.AvgEdges > 560 {
		t.Errorf("avg edges = %.1f, want near 429", tbl.AvgEdges)
	}
}

func TestTable2Shape(t *testing.T) {
	tbl, err := Table2(2, 42)
	if err != nil {
		t.Fatal(err)
	}
	cen := rowByName(t, tbl, "center-based")
	dist := rowByName(t, tbl, "distributed centers")
	// The §4.2.1 refinement: a considerable improvement in both DS and
	// fragment balance (paper: DS 69.5→4.3, AF 636→12.4).
	if dist.C.DS >= cen.C.DS/2 {
		t.Errorf("distributed DS %.1f not well below center %.1f", dist.C.DS, cen.C.DS)
	}
	if dist.C.AF >= cen.C.AF/2 {
		t.Errorf("distributed AF %.1f not well below center %.1f", dist.C.AF, cen.C.AF)
	}
	// Equal F by construction (same partitioned edge count).
	if dist.C.F != cen.C.F {
		t.Errorf("F differs: %v vs %v", dist.C.F, cen.C.F)
	}
	if tbl.AvgEdges < 2200 || tbl.AvgEdges > 4200 {
		t.Errorf("avg edges = %.1f, want near 3167", tbl.AvgEdges)
	}
}

func TestTable3Shape(t *testing.T) {
	tbl, err := Table3(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	bea := rowByName(t, tbl, "bond-energy")
	lin := rowByName(t, tbl, "linear")
	cen := rowByName(t, tbl, "center-based")
	if bea.C.DS >= cen.C.DS || bea.C.DS >= lin.C.DS {
		t.Errorf("bond-energy DS %.1f should be the smallest (center %.1f, linear %.1f)",
			bea.C.DS, cen.C.DS, lin.C.DS)
	}
	if lin.C.DS <= cen.C.DS {
		t.Errorf("linear DS %.1f should be the largest (center %.1f)", lin.C.DS, cen.C.DS)
	}
	if lin.C.Cycles != 0 {
		t.Errorf("linear cycles = %d, want 0", lin.C.Cycles)
	}
	if bea.C.AF <= cen.C.AF {
		t.Errorf("bond-energy AF %.1f should exceed center %.1f", bea.C.AF, cen.C.AF)
	}
	if tbl.AvgEdges < 200 || tbl.AvgEdges > 400 {
		t.Errorf("avg edges = %.1f, want near 279.5", tbl.AvgEdges)
	}
}

func TestTableFormat(t *testing.T) {
	tbl, err := Table1(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Format()
	for _, want := range []string{"Table 1", "Algorithm", "bond-energy", "linear", "center-based"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format() missing %q:\n%s", want, s)
		}
	}
}

func TestSpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup sweep is slow")
	}
	r, err := Speedup(40, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 3 {
		t.Fatalf("points = %v", r.Points)
	}
	// §2.1: speed-up grows with the fragment count; all chain sites are
	// used.
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.Speedup <= first.Speedup {
		t.Errorf("speedup not growing: %v", r.Points)
	}
	if last.Speedup < 2 {
		t.Errorf("8-fragment speedup = %.2f, want ≥ 2", last.Speedup)
	}
	if last.AvgSitesUsed < float64(last.Fragments)-0.5 {
		t.Errorf("chain queries should use every site: %v", last)
	}
	if !strings.Contains(r.Format(), "speedup") {
		t.Error("Format() missing header")
	}
}

func TestIterationsShape(t *testing.T) {
	r, err := Iterations(4, 15, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 2 {
		t.Fatalf("points = %v", r.Points)
	}
	// Fragmenting reduces per-site iterations below the global count.
	base := r.Points[0]
	for _, p := range r.Points[1:] {
		if p.Fragments > 1 && p.MaxSiteIterations >= base.GlobalIterations {
			t.Errorf("fragments=%d: site iterations %.1f not below global %.1f",
				p.Fragments, p.MaxSiteIterations, base.GlobalIterations)
		}
	}
	if !strings.Contains(r.Format(), "iterations") {
		t.Error("Format() missing header")
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.AlongDS >= r.AcrossDS {
		t.Errorf("along-axis DS %.1f should beat across-axis %.1f", r.AlongDS, r.AcrossDS)
	}
	if !strings.Contains(r.Format(), "Fig. 8") {
		t.Error("Format() missing header")
	}
}

func TestPHEShape(t *testing.T) {
	r, err := PHE(6, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	last := r.Points[len(r.Points)-1]
	// At 5 fully linked clusters, exhaustive enumeration considers many
	// more chains than hierarchical routing.
	if last.DSAChains <= last.PHEChains {
		t.Errorf("DSA chains %.1f should exceed PHE chains %.1f", last.DSAChains, last.PHEChains)
	}
	// Hierarchical answers are real paths: never cheaper than the
	// exhaustive optimum (ratio ≥ 1 up to float noise).
	for _, p := range r.Points {
		if p.CostRatio < 0.999 {
			t.Errorf("cost ratio %v < 1", p.CostRatio)
		}
	}
	if !strings.Contains(r.Format(), "hierarchical") {
		t.Error("Format() missing header")
	}
}

func TestAblationsRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(int, int64) (*Ablation, error)
	}{
		{"bea-threshold", AblationBEAThreshold},
		{"bea-mode", AblationBEAMode},
		{"center-variant", AblationCenterVariant},
		{"center-pool", AblationCenterPool},
		{"linear-start", AblationLinearStartCount},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.fn(2, 42)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Rows) < 2 {
				t.Fatalf("rows = %v", a.Rows)
			}
			if !strings.Contains(a.Format(), "Ablation") {
				t.Error("Format() missing header")
			}
		})
	}
}

func TestImpactShape(t *testing.T) {
	r, err := Impact(3, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
	byName := make(map[string]ImpactRow)
	for _, row := range r.Rows {
		byName[row.Algorithm] = row
		if row.MeanParallel <= 0 || row.Utilization <= 0 {
			t.Errorf("%s: no performance measured: %+v", row.Algorithm, row)
		}
	}
	bea, lin := byName["bond-energy"], byName["linear"]
	// The §4.2.3 conjecture: small disconnection sets are the main
	// performance factor — bond-energy (smallest DS) must beat linear
	// (largest DS) on parallel time and traffic.
	if bea.MeanParallel >= lin.MeanParallel {
		t.Errorf("bond-energy %v not faster than linear %v", bea.MeanParallel, lin.MeanParallel)
	}
	if bea.TuplesShipped >= lin.TuplesShipped {
		t.Errorf("bond-energy traffic %v not below linear %v", bea.TuplesShipped, lin.TuplesShipped)
	}
	if bea.CompFacts >= lin.CompFacts {
		t.Errorf("bond-energy comp facts %d not below linear %d", bea.CompFacts, lin.CompFacts)
	}
	if !strings.Contains(r.Format(), "Which characteristic") {
		t.Error("Format() missing header")
	}
}

func TestAmortizeShape(t *testing.T) {
	r, err := Amortize(5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 2 {
		t.Fatalf("points = %v", r.Points)
	}
	for _, p := range r.Points {
		if p.PrepTime <= 0 || p.PrepFacts <= 0 {
			t.Errorf("prep not charged: %+v", p)
		}
		if p.SavingsPerQuery <= 0 || p.BreakEvenQueries <= 0 {
			t.Errorf("no savings measured: %+v", p)
		}
	}
	// Larger graphs amortise faster: savings grow superlinearly while
	// prep grows linearly.
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.BreakEvenQueries > first.BreakEvenQueries {
		t.Errorf("break-even grew with graph size: %v", r.Points)
	}
	if !strings.Contains(r.Format(), "amortized") {
		t.Error("Format() missing header")
	}
}

func TestKConnCostShape(t *testing.T) {
	r, err := KConnCost(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 2 {
		t.Fatalf("points = %v", r.Points)
	}
	// The rejected analysis must be far more expensive than any §3
	// algorithm on the largest graph, and its cost must grow with the
	// graph.
	last := r.Points[len(r.Points)-1]
	if last.KConn <= 10*last.Center || last.KConn <= 10*last.Linear {
		t.Errorf("k-connectivity cost %v not clearly dominating %v/%v", last.KConn, last.Center, last.Linear)
	}
	if r.Points[0].KConn >= last.KConn {
		t.Errorf("k-connectivity cost not growing: %v", r.Points)
	}
	if !strings.Contains(r.Format(), "k-connectivity") {
		t.Error("Format() missing header")
	}
}

func TestAlgorithmConstructors(t *testing.T) {
	// Every constructor yields a runnable algorithm on a small graph.
	graphs, _, err := transportationBatch(1, 2, 10, 4.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{
		CenterBased(2), DistributedCenters(2), BondEnergy(3, 0, 4), Linear(2, 1),
	} {
		fr, err := alg.Run(graphs[0], 7)
		if err != nil {
			t.Errorf("%s: %v", alg.Name, err)
			continue
		}
		if fr.NumFragments() < 1 {
			t.Errorf("%s: no fragments", alg.Name)
		}
	}
}
