package tcq

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/fragment"
	"repro/internal/graph"
)

// entries returns n distinct node IDs.
func entries(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestPlannerTable: auto resolves by mode alone — connectivity to
// bitset, cost and pipelined to dense — on either problem; the problem
// only refuses. Neither the deployment's size nor the entry set's moves
// the choice: the rows named after small and large stores and entry
// sets are the cases of the size floors the planner no longer has.
// Forced engines pass through when the mode allows them.
func TestPlannerTable(t *testing.T) {
	small := StoreStats{Problem: ProblemShortestPath, Sites: 4, TotalNodes: 44}
	large := StoreStats{Problem: ProblemShortestPath, Sites: 8, TotalNodes: 64 * 64}
	reach := StoreStats{Problem: ProblemReachability, Sites: 4, TotalNodes: 44}
	req := func(mode Mode, sources int) Request {
		return Request{Sources: entries(sources), Targets: []int{9}, Mode: mode}
	}
	conn, cost, pipe := req(ModeConnectivity, 1), req(ModeCost, 1), req(ModePipelined, 1)
	forced := func(r Request, e Engine) Request { r.Engine = e; return r }

	cases := []struct {
		name    string
		req     Request
		stats   StoreStats
		want    Engine
		forced  bool
		wantErr error
	}{
		{"conn small store small entry", conn, small, EngineBitset, false, nil},
		{"conn large store", conn, large, EngineBitset, false, nil},
		{"conn small store large entry", req(ModeConnectivity, 9), small, EngineBitset, false, nil},
		{"conn small store near-floor entry", req(ModeConnectivity, 7), small, EngineBitset, false, nil},
		{"conn on reachability store", conn, reach, EngineBitset, false, nil},

		{"cost small store small entry", cost, small, EngineDense, false, nil},
		{"cost large store", cost, large, EngineDense, false, nil},
		{"cost small store large entry", req(ModeCost, 9), small, EngineDense, false, nil},
		{"cost on reachability store", cost, reach, 0, false, ErrProblemMismatch},

		{"pipe small store", pipe, small, EngineDense, false, nil},
		{"pipe large store", pipe, large, EngineDense, false, nil},
		{"pipe small store large entry", req(ModePipelined, 9), small, EngineDense, false, nil},
		{"pipe on reachability store", pipe, reach, 0, false, ErrProblemMismatch},

		// Forced engines pass through, compatible or not.
		{"forced dijkstra cost", forced(cost, EngineDijkstra), small, EngineDijkstra, true, nil},
		{"forced dijkstra pipelined", forced(pipe, EngineDijkstra), large, EngineDijkstra, true, nil},
		{"forced seminaive cost", forced(cost, EngineSemiNaive), large, EngineSemiNaive, true, nil},
		{"forced bitset conn", forced(conn, EngineBitset), small, EngineBitset, true, nil},
		{"forced bitset cost", forced(cost, EngineBitset), large, 0, true, ErrEngineMismatch},
		{"forced bitset pipelined", forced(pipe, EngineBitset), large, 0, true, ErrEngineMismatch},
		{"forced seminaive pipelined", forced(pipe, EngineSemiNaive), large, 0, true, ErrEngineMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := Plan(tc.req, tc.stats)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Plan() err = %v, want errors.Is %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ex.Engine != tc.want {
				t.Fatalf("Plan() engine = %v, want %v (reason %q)", ex.Engine, tc.want, ex.Reason)
			}
			if ex.Forced != tc.forced {
				t.Fatalf("Plan() forced = %v, want %v", ex.Forced, tc.forced)
			}
			if ex.Reason == "" {
				t.Fatal("Plan() must explain itself")
			}
			if ex.Canonical() != ex.Mode.String()+"/"+ex.Engine.String() {
				t.Fatalf("Canonical() = %q", ex.Canonical())
			}
		})
	}
}

// TestAutoRefusesNegativeWeights: a graph file may carry a negative
// weight, which both kernels refuse. Auto picks a kernel for every mode,
// so every mode answers the typed ErrNegativeWeight, while a forced
// dijkstra still answers (Dijkstra is unsound on negative weights in
// general, right on this path: 0 → 1 → 2 → 3 costs 3 - 2 + 1).
func TestAutoRefusesNegativeWeights(t *testing.T) {
	g, err := graph.Read(strings.NewReader("edge 0 1 3\nedge 1 2 -2\nedge 2 3 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fragment.Read(g, strings.NewReader("fragment 0 0 1 3\nfragment 0 1 2 -2\nfragment 1 2 3 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(fr, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for mode := ModeConnectivity; mode.Valid(); mode++ {
		req := Request{Sources: []int{0}, Targets: []int{3}, Mode: mode}
		if res, err := c.Query(ctx, req); !errors.Is(err, ErrNegativeWeight) {
			t.Errorf("auto %s: %v, %v; want ErrNegativeWeight", mode, res, err)
		}
		req.Engine = EngineDijkstra
		res, err := c.Query(ctx, req)
		if err != nil || len(res.Answers) != 1 || !res.Answers[0].Reachable || mode != ModeConnectivity && res.Answers[0].Cost != 2 {
			t.Errorf("dijkstra %s: %+v, %v; want reachable at cost 2", mode, res, err)
		}
	}
}
