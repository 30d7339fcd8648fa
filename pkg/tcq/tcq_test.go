package tcq

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fragment"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/graph"
)

// gridClient builds a W×H grid fragmented into frags linear fragments
// and opens a facade client over it.
func gridClient(t *testing.T, w, h, frags int, opt BuildOptions) (*Client, *graph.Graph) {
	t.Helper()
	g, err := gen.Grid(gen.GridConfig{Width: w, Height: h, DiagonalProb: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := linear.Fragment(g, linear.Options{NumFragments: frags})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(res.Fragmentation, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, g
}

func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"empty sources", Request{Targets: []int{1}}, ErrInvalidRequest},
		{"empty targets", Request{Sources: []int{1}}, ErrInvalidRequest},
		{"negative limit", Request{Sources: []int{1}, Targets: []int{2}, Limit: -1}, ErrInvalidRequest},
		{"bad mode", Request{Sources: []int{1}, Targets: []int{2}, Mode: Mode(9)}, ErrUnknownMode},
		{"bad engine", Request{Sources: []int{1}, Targets: []int{2}, Engine: Engine(9)}, ErrUnknownEngine},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.req.Validate(); !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is %v", err, tc.want)
			}
		})
	}
	ok := Request{Sources: []int{5, 3, 5}, Targets: []int{2}, Mode: ModeCost}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	canon, err := ok.canonical()
	if err != nil {
		t.Fatal(err)
	}
	if len(canon.Sources) != 2 || canon.Sources[0] != 3 || canon.Sources[1] != 5 {
		t.Fatalf("canonical sources = %v, want [3 5]", canon.Sources)
	}
}

func TestParseModeAndEngine(t *testing.T) {
	for name, want := range map[string]Mode{
		"": ModeConnectivity, "Connectivity": ModeConnectivity, "COST": ModeCost,
		"pipelined": ModePipelined, "connected": ModeConnectivity, "shortest": ModeCost,
	} {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); !errors.Is(err, ErrUnknownMode) {
		t.Fatalf("ParseMode(bogus) = %v, want ErrUnknownMode", err)
	}
	for name, want := range map[string]Engine{
		"": EngineAuto, "auto": EngineAuto, "AUTO": EngineAuto,
		"dijkstra": EngineDijkstra, "SemiNaive": EngineSemiNaive,
		"Bitset": EngineBitset, "DENSE": EngineDense,
	} {
		got, err := ParseEngine(name)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseEngine("warp"); !errors.Is(err, ErrUnknownEngine) {
		t.Fatalf("ParseEngine(warp) = %v, want ErrUnknownEngine", err)
	}
	// Round trip: every engine's String parses back to itself.
	for _, e := range []Engine{EngineAuto, EngineDijkstra, EngineSemiNaive, EngineBitset, EngineDense} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v; want %v", e.String(), got, err, e)
		}
	}
}

func TestQueryMultiPairAndLimit(t *testing.T) {
	c, _ := gridClient(t, 8, 8, 2, BuildOptions{})
	ctx := context.Background()
	req := Request{Sources: []int{0, 1}, Targets: []int{62, 63}, Mode: ModeCost}
	res, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 4 {
		t.Fatalf("got %d answers, want 4", len(res.Answers))
	}
	// Canonical order: sources ascending, then targets ascending.
	wantPairs := [][2]int{{0, 62}, {0, 63}, {1, 62}, {1, 63}}
	for i, p := range wantPairs {
		if res.Answers[i].Source != p[0] || res.Answers[i].Target != p[1] {
			t.Fatalf("answer %d is (%d,%d), want (%d,%d)",
				i, res.Answers[i].Source, res.Answers[i].Target, p[0], p[1])
		}
	}
	if res.LimitHit {
		t.Fatal("LimitHit must be false without a limit")
	}

	req.Limit = 3
	res, err = c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 || !res.LimitHit {
		t.Fatalf("limit 3: got %d answers, LimitHit=%v", len(res.Answers), res.LimitHit)
	}
}

func TestQueryStream(t *testing.T) {
	c, _ := gridClient(t, 8, 8, 2, BuildOptions{})
	rs, err := c.QueryStream(context.Background(), Request{
		Sources: []int{0}, Targets: []int{10, 20, 30}, Mode: ModeCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var n int
	for rs.Next() {
		if !rs.Answer().Reachable {
			t.Fatalf("pair (%d,%d) unreachable on a connected grid", rs.Answer().Source, rs.Answer().Target)
		}
		n++
		if n == 2 {
			// Early close: the third pair must never be evaluated.
			rs.Close()
		}
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("consumed %d answers after early close, want 2", n)
	}
}

func TestTypedErrors(t *testing.T) {
	c, _ := gridClient(t, 6, 6, 2, BuildOptions{})
	ctx := context.Background()

	if _, err := c.Query(ctx, Request{Sources: []int{0}, Targets: []int{999999}, Mode: ModeCost}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown target: got %v, want ErrUnknownNode", err)
	}
	if _, err := c.Query(ctx, Request{Sources: []int{0}, Targets: []int{1}, Mode: ModeCost, Engine: EngineBitset}); !errors.Is(err, ErrEngineMismatch) {
		t.Fatalf("bitset cost: got %v, want ErrEngineMismatch", err)
	}
	if _, err := c.Query(ctx, Request{Sources: []int{0}, Targets: []int{1}, Mode: ModePipelined, Engine: EngineSemiNaive}); !errors.Is(err, ErrEngineMismatch) {
		t.Fatalf("seminaive pipelined: got %v, want ErrEngineMismatch", err)
	}
	if _, err := c.Cost(ctx, 0, 1); err != nil {
		t.Fatalf("Cost on connected pair: %v", err)
	}
	if _, err := c.Apply(ctx, new(Batch).Insert(0, 0, 1, -2)); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("negative insert: got %v, want ErrNegativeWeight", err)
	}
	if _, err := c.Apply(ctx, new(Batch).Insert(99, 0, 1, 1)); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("bad fragment: got %v, want ErrUnknownSite", err)
	}

	// A reachability store answers connectivity but refuses cost modes.
	rc, _ := gridClient(t, 6, 6, 2, BuildOptions{Problem: ProblemReachability})
	if ok, err := rc.Connected(ctx, 0, 35); err != nil || !ok {
		t.Fatalf("reachability store Connected = %v, %v", ok, err)
	}
	if _, err := rc.Query(ctx, Request{Sources: []int{0}, Targets: []int{1}, Mode: ModeCost}); !errors.Is(err, ErrProblemMismatch) {
		t.Fatalf("cost on reachability store: got %v, want ErrProblemMismatch", err)
	}
}

func TestNoRouteConveniences(t *testing.T) {
	// Two disconnected components: 0→1 and 2→3 in separate fragments.
	g := graph.New()
	e1 := graph.Edge{From: 0, To: 1, Weight: 1}
	e2 := graph.Edge{From: 2, To: 3, Weight: 1}
	g.AddEdge(e1)
	g.AddEdge(e2)
	fr, err := fragment.New(g, [][]graph.Edge{{e1}, {e2}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(fr, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	res, err := c.Query(ctx, Request{Sources: []int{0}, Targets: []int{3}, Mode: ModeCost})
	if err != nil {
		t.Fatalf("unreachable pairs are answers, not errors: %v", err)
	}
	if res.Answers[0].Reachable {
		t.Fatal("0 must not reach 3")
	}
	if _, err := c.Cost(ctx, 0, 3); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Cost on unreachable pair: got %v, want ErrNoRoute", err)
	}
	if _, _, err := c.QueryPath(ctx, 0, 3); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("QueryPath on unreachable pair: got %v, want ErrNoRoute", err)
	}
}

func TestQueryBatch(t *testing.T) {
	c, _ := gridClient(t, 8, 8, 2, BuildOptions{})
	ctx := context.Background()
	batch, err := c.QueryBatch(ctx, []Request{
		{Sources: []int{0}, Targets: []int{63}, Mode: ModeCost},
		{Sources: []int{0}, Targets: []int{999999}, Mode: ModeCost}, // bad node
		{Sources: []int{63}, Targets: []int{0}, Mode: ModeConnectivity},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("got %d batch results, want 3", len(batch))
	}
	if batch[0].Err != nil || !batch[0].Result.Answers[0].Reachable {
		t.Fatalf("batch[0] = %+v", batch[0])
	}
	if want, err := c.Cost(ctx, 0, 63); err != nil || batch[0].Result.Answers[0].Cost != want {
		t.Fatalf("batch[0] cost %v, the same request alone answers %v, %v", batch[0].Result.Answers[0].Cost, want, err)
	}
	if !errors.Is(batch[1].Err, ErrUnknownNode) {
		t.Fatalf("batch[1].Err = %v, want ErrUnknownNode", batch[1].Err)
	}
	if batch[2].Err != nil {
		t.Fatalf("batch[2].Err = %v", batch[2].Err)
	}
}

func TestUpdatesThroughClient(t *testing.T) {
	c, _ := gridClient(t, 6, 6, 2, BuildOptions{})
	ctx := context.Background()
	before, err := c.Cost(ctx, 0, 35)
	if err != nil {
		t.Fatal(err)
	}
	epoch := c.Epoch()
	if _, err := c.Apply(ctx, new(Batch).Insert(0, 0, 5, 0.01)); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != epoch+1 {
		t.Fatalf("epoch %d after insert, want %d", c.Epoch(), epoch+1)
	}
	after, err := c.Cost(ctx, 0, 35)
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("inserting a shortcut must not lengthen the path: %v > %v", after, before)
	}
}

func TestConnectivityAnswersAreEngineIndependent(t *testing.T) {
	c, _ := gridClient(t, 8, 8, 2, BuildOptions{})
	ctx := context.Background()
	var got []Answer
	for _, e := range []Engine{EngineDijkstra, EngineSemiNaive, EngineBitset, EngineDense} {
		res, err := c.Query(ctx, Request{Sources: []int{0}, Targets: []int{63}, Mode: ModeConnectivity, Engine: e})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		a := res.Answers[0]
		if a.Cost != 0 || a.BestChain != nil {
			t.Fatalf("%v: connectivity answers must carry zero cost and nil chain, got %+v", e, a)
		}
		got = append(got, a)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Reachable != got[0].Reachable {
			t.Fatalf("engines disagree on reachability: %+v vs %+v", got[i], got[0])
		}
	}
}
