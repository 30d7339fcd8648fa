package dsa

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fragment"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
)

// borderStores are the property test's fixtures: a grid and a road
// network, whose sites are all symmetric (their first legs gather
// columns; the road's weights are Euclidean, so a reversed sum can
// differ in its last bits), a transportation
// graph cut around centers, the paper's shape, whose sites are not (its
// first legs are left to the kernel), and the directed three-way store,
// whose site 0 has a border node without out-edges.
func borderStores(t *testing.T) map[string]*Store {
	t.Helper()
	build := func(fr *fragment.Fragmentation, err error) *Store {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		st, err := Build(fr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	g, err := gen.Grid(gen.GridConfig{Width: 8, Height: 6, DiagonalProb: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := gen.Transportation(gen.TransportConfig{Clusters: 3, Cluster: gen.Defaults(10, 2)})
	if err != nil {
		t.Fatal(err)
	}
	rg, sets, err := gen.RoadNetwork(gen.RoadConfig{Clusters: 3, ClusterWidth: 4, ClusterHeight: 3, Gateways: 2, DiagonalProb: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Store{
		"grid":           build(res.Fragmentation, nil),
		"road":           build(fragment.New(rg, sets)),
		"transportation": build(center.Fragment(tg, center.Options{NumFragments: 3, Distributed: true})),
		"three-way":      threeWayStore(t),
	}
}

// checkBlock fails unless got is want — rows, exits, zero-cost flags
// and fact count equal, and the cells bit-equal, or for a column gather
// (reversed) within the oracle's relative tolerance, +Inf where want
// has it.
func checkBlock(t *testing.T, what string, got, want *ExitBlock, reversed bool) {
	t.Helper()
	if !slices.Equal(got.rows, want.rows) || !slices.Equal(got.exits, want.exits) || !slices.Equal(got.zero, want.zero) || got.n != want.n || len(got.cost) != len(want.cost) {
		t.Fatalf("%s: block rows %v exits %v zero %v n %d (%d cells), want rows %v exits %v zero %v n %d (%d cells)",
			what, got.rows, got.exits, got.zero, got.n, len(got.cost), want.rows, want.exits, want.zero, want.n, len(want.cost))
	}
	for i, w := range want.cost {
		g := got.cost[i]
		same := math.Float64bits(g) == math.Float64bits(w)
		if reversed && !same {
			same = !math.IsInf(w, 1) && math.Abs(g-w) <= 1e-9*(1+math.Abs(w))
		}
		if !same {
			t.Fatalf("%s: cell %d = %v, want %v", what, i, g, w)
		}
	}
}

// TestPropertyBorderBlockMatchesLegTable: every leg of every plan —
// same-fragment ones too, which the serving layer also asks the tables
// for — on every engine, gathered from its site's border table is the
// block SelectExits selects from the leg's own table, unless the tables
// leave it to the kernel, building nothing: a leg whose entry nodes are
// not all border nodes, except a one-source leg on a symmetric site
// whose exits all are. Each store answers with fresh tables, so each
// table is built once, by the first leg that reads it; the test fails
// unless row gathers, column gathers, memoized transit blocks and
// refused legs all occurred.
func TestPropertyBorderBlockMatchesLegTable(t *testing.T) {
	ctx := context.Background()
	var rowReads, columnReads, transitReads, refused int
	for name, st := range borderStores(t) {
		for _, engine := range Engines() {
			fresh, err := Restore(st.fr, st.comp, Options{}, 0, st.prep)
			if err != nil {
				t.Fatal(err)
			}
			builds := make(map[int]int)
			nodes := st.fr.Nodes()
			for _, src := range nodes {
				for _, dst := range nodes {
					plan, err := fresh.NewPlan(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					if src == dst {
						continue
					}
					for _, leg := range plan.Legs {
						site := fresh.sites[leg.SiteID]
						what := fmt.Sprintf("%s/%v: site %d leg %v → %v", name, engine, leg.SiteID, leg.Entry, leg.Exit)
						before := site.tables[engine].table.Load()
						got, built, err := fresh.BorderBlockCtx(ctx, leg, engine)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						rows := onBorder(site.border, leg.Entry)
						column := onBorder(site.border, leg.Exit)
						if got == nil {
							if rows || (column && len(leg.Entry) == 1 && site.isSymmetric()) || site.tables[engine].table.Load() != before {
								t.Fatalf("%s: refused a leg entered through border nodes or a column read, or built a table for a refused leg", what)
							}
							refused++
							continue
						}
						if built {
							builds[leg.SiteID]++
						}
						table, _, err := fresh.ExecuteLegTableCtx(ctx, leg, engine)
						if err != nil {
							t.Fatal(err)
						}
						checkBlock(t, what, got, SelectExits(table, leg), !rows)
						switch {
						case !rows:
							columnReads++
						case site.dsIndex(leg.Entry) >= 0 && site.dsIndex(leg.Exit) >= 0:
							transitReads++
							if again, _, _ := fresh.BorderBlockCtx(ctx, leg, engine); again != got {
								t.Fatalf("%s: a second read gathered a new transit block", what)
							}
						default:
							rowReads++
						}
					}
				}
			}
			for id, n := range builds {
				if n != 1 {
					t.Errorf("%s/%v: site %d table built %d times", name, engine, id, n)
				}
			}
		}
	}
	t.Logf("%d row gathers, %d column gathers, %d transit reads, %d legs left to the kernel", rowReads, columnReads, transitReads, refused)
	if rowReads == 0 || columnReads == 0 || transitReads == 0 || refused == 0 {
		t.Error("a gather shape never occurred")
	}
}

// TestPropertyGoalBlockMatchesLegTable: every dense-engine leg of
// every plan of the border stores with one entry on its site and one
// exit off the border — a same-fragment leg — is answered by
// GoalBlockCtx with the block SelectExits selects from the leg's own
// table, its cell bit for bit, whether its site's dense border table is
// built or not and whether the site is symmetric or not; on another
// engine and for any other leg GoalBlockCtx answers nothing. It builds
// nothing either way.
func TestPropertyGoalBlockMatchesLegTable(t *testing.T) {
	ctx := context.Background()
	answered, landmarked, asymmetric := 0, 0, 0
	for name, st := range borderStores(t) {
		fresh, err := Restore(st.fr, st.comp, Options{}, 0, st.prep)
		if err != nil {
			t.Fatal(err)
		}
		nodes := st.fr.Nodes()
		for _, src := range nodes {
			for _, dst := range nodes {
				plan, err := fresh.NewPlan(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				for _, leg := range plan.Legs {
					site := fresh.sites[leg.SiteID]
					what := fmt.Sprintf("%s: site %d leg %v → %v", name, leg.SiteID, leg.Entry, leg.Exit)
					for _, engine := range Engines() {
						built := site.tables[engine].table.Load() != nil
						got, _, err := fresh.GoalBlockCtx(ctx, leg, engine)
						if err != nil {
							t.Fatalf("%s/%v: %v", what, engine, err)
						}
						_, onSite := site.csr.Row(leg.Entry[0])
						want := engine == EngineDense && len(leg.Entry) == 1 && onSite && len(leg.Exit) == 1 &&
							!onBorder(site.border, leg.Exit)
						if (got != nil) != want || (site.tables[engine].table.Load() != nil) != built {
							t.Fatalf("%s/%v: block %v with the table built %v; want a block %v, and no build", what, engine, got, built, want)
						}
						if got != nil {
							table, _, err := fresh.ExecuteLegTableCtx(ctx, leg, engine)
							if err != nil {
								t.Fatal(err)
							}
							checkBlock(t, what, got, SelectExits(table, leg), false)
							answered++
							if site.tables[EngineDense].table.Load() != nil && site.isSymmetric() {
								landmarked++
							}
							if !site.isSymmetric() {
								asymmetric++
							}
						}
						if _, _, err := fresh.BorderBlockCtx(ctx, leg, engine); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	if landmarked == 0 || asymmetric == 0 || answered == landmarked {
		t.Fatalf("%d legs answered, %d over landmarks, %d on asymmetric sites: want each kind", answered, landmarked, asymmetric)
	}
	t.Logf("%d legs answered, %d over landmarks, %d on asymmetric sites", answered, landmarked, asymmetric)
}

// TestSemiNaiveBorderRowWithoutFacts: a semi-naive border table has
// every leg table's shape, a row for each border node. On the
// three-way store, site 0 (1→2, 2→0, 2→7) has border node 0 with no
// out-edge: its row exists and reads +Inf, a leg entered at 0 gathers
// the block its own table selects, and a column read through 0 —
// d(1, 0) read as d(0, 1) — reads +Inf.
func TestSemiNaiveBorderRowWithoutFacts(t *testing.T) {
	st := threeWayStore(t)
	site := st.sites[0]
	if !slices.Equal(site.border, []graph.NodeID{0}) {
		t.Fatalf("site 0 border %v, want [0]", site.border)
	}
	leg := Leg{SiteID: 0, Entry: []graph.NodeID{0}, Exit: []graph.NodeID{7}}
	got, built, err := st.BorderBlockCtx(context.Background(), leg, EngineSemiNaive)
	if err != nil || !built || got == nil {
		t.Fatalf("block %v, built %v, err %v", got, built, err)
	}
	table := site.tables[EngineSemiNaive].table.Load()
	if !slices.Equal(table.m.Rows, []graph.NodeID{0}) || table.m.Len() != 0 {
		t.Fatalf("semi-naive border table rows %v with %d facts, want the row of 0 reading +Inf", table.m.Rows, table.m.Len())
	}
	own, _, err := st.ExecuteLegTableCtx(context.Background(), leg, EngineSemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	checkBlock(t, "entered at 0", got, SelectExits(own, leg), false)
	col := table.columnBlock(site, Leg{SiteID: 0, Entry: []graph.NodeID{1}, Exit: []graph.NodeID{0}}, []int32{0})
	if !slices.Equal(col.rows, []graph.NodeID{1}) || len(col.cost) != 1 || !math.IsInf(col.cost[0], 1) || col.n != 0 {
		t.Errorf("column through 0: rows %v cells %v n %d, want row [1] reading +Inf and no fact", col.rows, col.cost, col.n)
	}
}

// gridStore is a fresh 8x8 grid store in four linear fragments and a
// leg entered through a disconnection set of its second site.
func gridStore(t *testing.T) (*Store, Leg) {
	t.Helper()
	g, err := gen.Grid(gen.GridConfig{Width: 8, Height: 8, DiagonalProb: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(res.Fragmentation, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	plan, err := st.NewPlan(nodes[0], nodes[len(nodes)-1])
	if err != nil || len(plan.Legs) < 2 {
		t.Fatalf("plan %+v, err %v: want a leg entered through a disconnection set", plan, err)
	}
	return st, plan.Legs[1]
}

// TestBorderTableBuiltOnce: goroutines first-reading one site race to
// its table; exactly one builds it, every reader gets the same table's
// block, and the transit memo hands them one block. Run with -race.
func TestBorderTableBuiltOnce(t *testing.T) {
	st, leg := gridStore(t)
	const readers = 16
	blocks := make([]*ExitBlock, readers)
	var builds sync.WaitGroup
	var mu sync.Mutex
	built := 0
	start := make(chan struct{})
	for i := range readers {
		builds.Add(1)
		go func() {
			defer builds.Done()
			<-start
			b, didBuild, err := st.BorderBlockCtx(context.Background(), leg, EngineDense)
			if err != nil {
				t.Error(err)
				return
			}
			blocks[i] = b
			if didBuild {
				mu.Lock()
				built++
				mu.Unlock()
			}
		}()
	}
	close(start)
	builds.Wait()
	if built != 1 {
		t.Errorf("%d readers built the table, want exactly 1", built)
	}
	for i, b := range blocks {
		if b == nil || b.n != blocks[0].n || !slices.Equal(b.cost, blocks[0].cost) {
			t.Fatalf("reader %d: block %+v, reader 0's %+v", i, b, blocks[0])
		}
	}
	if st.sites[leg.SiteID].TableBytes() <= 0 {
		t.Error("the built table holds no bytes")
	}
}

// TestBorderTableCanceledBuild: a build whose reader is canceled
// returns ErrCanceled and leaves the slot empty; a reader canceled
// while another's build runs gives up promptly, without waiting for
// it; and the next reader builds the table.
func TestBorderTableCanceledBuild(t *testing.T) {
	st, leg := gridStore(t)
	slot := &st.sites[leg.SiteID].tables[EngineDense]

	// The builder: canceled after the kernel's first checks.
	_, built, err := st.BorderBlockCtx(&cancelAfter{Context: context.Background(), n: 2}, leg, EngineDense)
	if !errors.Is(err, ErrCanceled) || built {
		t.Fatalf("canceled build: built %v, err %v; want ErrCanceled", built, err)
	}
	if slot.table.Load() != nil || slot.building != nil {
		t.Fatal("a canceled build left a table or a running build in the slot")
	}

	// A waiter: a build holds the slot until the test releases it.
	running := make(chan struct{})
	slot.mu.Lock()
	slot.building = running
	slot.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, _, err = st.BorderBlockCtx(ctx, leg, EngineDense)
	if !errors.Is(err, ErrCanceled) || time.Since(t0) > 5*time.Second {
		t.Fatalf("waiter: err %v after %v; want ErrCanceled at its deadline", err, time.Since(t0))
	}
	slot.mu.Lock()
	slot.building = nil
	slot.mu.Unlock()
	close(running)

	// The next reader builds the table.
	b, built, err := st.BorderBlockCtx(context.Background(), leg, EngineDense)
	if err != nil || !built || b == nil {
		t.Fatalf("next reader: block %v, built %v, err %v; want the build", b, built, err)
	}
	table, _, err := st.ExecuteLegTableCtx(context.Background(), leg, EngineDense)
	if err != nil {
		t.Fatal(err)
	}
	checkBlock(t, "after the canceled builds", b, SelectExits(table, leg), false)
}
