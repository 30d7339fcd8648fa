package tcq

import (
	"errors"
	"testing"
)

// sized builds the smallest stats struct the planner distinguishes on.
func sized(maxNodes int) StoreStats {
	return StoreStats{Problem: ProblemShortestPath, Sites: 4, MaxSiteNodes: maxNodes}
}

// entries returns n distinct node IDs.
func entries(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestPlannerTable(t *testing.T) {
	small := sized(KernelNodeFloor - 1)
	large := sized(KernelNodeFloor)
	fewEntries := entries(KernelEntryFloor - 1)
	manyEntries := entries(KernelEntryFloor)

	cases := []struct {
		name    string
		req     Request
		stats   StoreStats
		want    Engine
		forced  bool
		wantErr error
	}{
		// Connectivity: bitset above either floor, dijkstra below both.
		{"conn small store small entry", Request{Sources: entries(1), Targets: []int{9}}, small, EngineDijkstra, false, nil},
		{"conn large store", Request{Sources: entries(1), Targets: []int{9}}, large, EngineBitset, false, nil},
		{"conn small store large entry", Request{Sources: manyEntries, Targets: []int{9}}, small, EngineBitset, false, nil},
		{"conn small store near-floor entry", Request{Sources: fewEntries, Targets: []int{9}}, small, EngineDijkstra, false, nil},

		// Cost: dense above either floor, dijkstra below both.
		{"cost small store small entry", Request{Sources: entries(1), Targets: []int{9}, Mode: ModeCost}, small, EngineDijkstra, false, nil},
		{"cost large store", Request{Sources: entries(1), Targets: []int{9}, Mode: ModeCost}, large, EngineDense, false, nil},
		{"cost small store large entry", Request{Sources: manyEntries, Targets: []int{9}, Mode: ModeCost}, small, EngineDense, false, nil},

		// Pipelined: node floor only — entry size is irrelevant.
		{"pipe small store", Request{Sources: entries(1), Targets: []int{9}, Mode: ModePipelined}, small, EngineDijkstra, false, nil},
		{"pipe large store", Request{Sources: entries(1), Targets: []int{9}, Mode: ModePipelined}, large, EngineDense, false, nil},
		{"pipe small store large entry", Request{Sources: manyEntries, Targets: []int{9}, Mode: ModePipelined}, small, EngineDijkstra, false, nil},

		// Forced engines pass through, compatible or not.
		{"forced seminaive cost", Request{Sources: entries(1), Targets: []int{9}, Mode: ModeCost, Engine: EngineSemiNaive}, large, EngineSemiNaive, true, nil},
		{"forced bitset conn", Request{Sources: entries(1), Targets: []int{9}, Engine: EngineBitset}, small, EngineBitset, true, nil},
		{"forced bitset cost", Request{Sources: entries(1), Targets: []int{9}, Mode: ModeCost, Engine: EngineBitset}, large, 0, true, ErrEngineMismatch},
		{"forced bitset pipelined", Request{Sources: entries(1), Targets: []int{9}, Mode: ModePipelined, Engine: EngineBitset}, large, 0, true, ErrEngineMismatch},
		{"forced seminaive pipelined", Request{Sources: entries(1), Targets: []int{9}, Mode: ModePipelined, Engine: EngineSemiNaive}, large, 0, true, ErrEngineMismatch},

		// Problem compatibility.
		{"cost on reachability store", Request{Sources: entries(1), Targets: []int{9}, Mode: ModeCost},
			StoreStats{Problem: ProblemReachability, MaxSiteNodes: 500}, 0, false, ErrProblemMismatch},
		{"conn on reachability store", Request{Sources: entries(1), Targets: []int{9}},
			StoreStats{Problem: ProblemReachability, MaxSiteNodes: 500}, EngineBitset, false, nil},
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
