package tcq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dsa"
)

// Mode selects what a query computes.
type Mode int

const (
	// ModeConnectivity answers "is T reachable from S?" — the paper's
	// boolean connection query. It works on every store (a shortest-path
	// store's complementary information subsumes connectivity) and with
	// every engine. It is the zero value: the cheapest question every
	// deployment can answer.
	ModeConnectivity Mode = iota
	// ModeCost answers "what is the cost of the cheapest path from S to
	// T?" — the paper's headline query. It needs a shortest-path store
	// and a cost-capable engine (everything but bitset).
	ModeCost
	// ModePipelined answers the cost query with pipelined chain
	// evaluation: the legs of each fragment chain run in sequence, each
	// seeded with the running cost vector of the previous legs. It needs
	// a vector-seeded engine (dijkstra or dense).
	ModePipelined
)

// String names the mode the way the HTTP API and CLI flags spell it.
func (m Mode) String() string {
	switch m {
	case ModeConnectivity:
		return "connectivity"
	case ModeCost:
		return "cost"
	case ModePipelined:
		return "pipelined"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Valid reports whether m is a known mode.
func (m Mode) Valid() bool {
	return m == ModeConnectivity || m == ModeCost || m == ModePipelined
}

// ParseMode resolves a mode name, case-insensitively. The empty string
// is ModeConnectivity (the zero value); unknown names return an error
// wrapping ErrUnknownMode.
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "connectivity", "connected", "reachability":
		return ModeConnectivity, nil
	case "cost", "shortest", "shortestpath":
		return ModeCost, nil
	case "pipelined", "pipeline":
		return ModePipelined, nil
	}
	return 0, fmt.Errorf("tcq: %w %q (want connectivity, cost or pipelined)", ErrUnknownMode, name)
}

// Engine selects the per-site evaluation algorithm. The zero value
// EngineAuto delegates the choice to the planner (Plan), which is the
// intended way to use the facade — the concrete engines exist for
// benchmarking, testing and explicit overrides.
type Engine int

const (
	// EngineAuto lets the planner pick the engine from the query mode
	// alone: bitset for connectivity, dense for cost and pipelined.
	EngineAuto Engine = iota
	// EngineDijkstra runs one Dijkstra per entry node on the site's CSR
	// — never auto-chosen; it is the engine route reconstruction
	// (QueryPath) walks with, and the one that still answers a graph
	// with negative weights.
	EngineDijkstra
	// EngineSemiNaive runs the relational semi-naive min-cost fixpoint —
	// the paper's own formulation, kept as the reference engine.
	EngineSemiNaive
	// EngineBitset runs the bitset-parallel reachability kernel —
	// connectivity only.
	EngineBitset
	// EngineDense runs the CSR + parallel Bellman-Ford cost kernel —
	// the planner's engine for cost and pipelined queries.
	EngineDense
)

// String names the engine the way the HTTP API and CLI flags spell it.
func (e Engine) String() string {
	if e == EngineAuto {
		return "auto"
	}
	if d, err := e.dsa(); err == nil {
		return d.String()
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Valid reports whether e is a known engine (including EngineAuto).
func (e Engine) Valid() bool {
	return e == EngineAuto || dsa.ValidEngine(dsa.Engine(e-1))
}

// dsa maps a concrete engine to its internal value: the concrete
// constants above are dsa's engine table shifted by one to make room
// for EngineAuto. EngineAuto has no mapping — resolve it with Plan
// first.
func (e Engine) dsa() (dsa.Engine, error) {
	if d := dsa.Engine(e - 1); dsa.ValidEngine(d) {
		return d, nil
	}
	return 0, fmt.Errorf("tcq: %w %d (not a concrete engine)", ErrUnknownEngine, int(e))
}

// ParseEngine resolves an engine name, case-insensitively. The empty
// string and "auto" are EngineAuto; the concrete names are the ones
// dsa.ParseEngine accepts. Unknown names return an error wrapping
// ErrUnknownEngine.
func ParseEngine(name string) (Engine, error) {
	if n := strings.ToLower(strings.TrimSpace(name)); n == "" || n == EngineAuto.String() {
		return EngineAuto, nil
	}
	d, err := dsa.ParseEngine(name)
	if err != nil {
		return 0, fmt.Errorf("tcq: %w %q (want auto, %s)", ErrUnknownEngine, name, dsa.EngineNames(nil))
	}
	return Engine(d + 1), nil
}

// Request is one facade query: compute Mode for every (source, target)
// pair of the cross product Sources × Targets. The zero values of the
// optional fields mean "let the system decide": EngineAuto delegates
// engine selection to the planner and Limit 0 returns every pair.
//
// Requests are validated (and their node sets canonicalised — sorted,
// deduplicated) exactly once, at the top of Query/QueryBatch/
// QueryStream/Plan; everything below works on the canonical form.
type Request struct {
	// Sources and Targets are the query entry and exit sets as raw node
	// IDs. Both must be non-empty.
	Sources []int
	// Targets — see Sources.
	Targets []int
	// Mode selects connectivity, cost or pipelined evaluation (zero
	// value: connectivity).
	Mode Mode
	// Engine optionally forces a concrete engine; EngineAuto (the zero
	// value) lets the planner choose.
	Engine Engine
	// Limit caps the number of answers (0 = all pairs). When the cap
	// fires, Result.LimitHit is set.
	Limit int
}

// Validate checks the request without running it: non-empty source and
// target sets, a known mode and engine, a non-negative limit. The
// returned error wraps ErrInvalidRequest, ErrUnknownMode or
// ErrUnknownEngine.
func (r Request) Validate() error {
	_, err := r.canonical()
	return err
}

// canonical validates and returns the canonical form of the request:
// sources and targets sorted ascending with duplicates removed. The
// canonical form is what the planner keys on and what pair iteration
// orders by, so equal requests always produce byte-identical plans.
func (r Request) canonical() (Request, error) {
	if len(r.Sources) == 0 {
		return r, fmt.Errorf("tcq: %w: empty source set", ErrInvalidRequest)
	}
	if len(r.Targets) == 0 {
		return r, fmt.Errorf("tcq: %w: empty target set", ErrInvalidRequest)
	}
	if r.Limit < 0 {
		return r, fmt.Errorf("tcq: %w: negative limit %d", ErrInvalidRequest, r.Limit)
	}
	if !r.Mode.Valid() {
		return r, fmt.Errorf("tcq: %w %d", ErrUnknownMode, int(r.Mode))
	}
	if !r.Engine.Valid() {
		return r, fmt.Errorf("tcq: %w %d", ErrUnknownEngine, int(r.Engine))
	}
	r.Sources = sortedDedup(r.Sources)
	r.Targets = sortedDedup(r.Targets)
	return r, nil
}

// sortedDedup returns a sorted copy of ids with duplicates removed.
func sortedDedup(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	w := 0
	for i, id := range out {
		if i == 0 || id != out[w-1] {
			out[w] = id
			w++
		}
	}
	return out[:w]
}
