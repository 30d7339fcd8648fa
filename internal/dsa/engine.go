package dsa

import (
	"fmt"
	"strings"
)

// Engine selects the algorithm a site uses for its local recursive
// subquery — "for evaluating the recursive subquery on a fragment any
// suitable single-processor algorithm may be chosen" (§2.1).
type Engine int

const (
	// EngineDijkstra runs one Dijkstra per entry node on the site's CSR
	// of the augmented fragment — the fast practical engine.
	EngineDijkstra Engine = iota
	// EngineSemiNaive runs the relational semi-naive min-cost fixpoint
	// with the entry set pushed as a selection; it reports the
	// iteration counts the paper's workload analysis is phrased in.
	EngineSemiNaive
	// EngineBitset runs the entry-set-restricted bitset-parallel
	// reachability kernel (tc.DenseGraph.ReachFromCtx) on the site's one
	// CSR, as every engine but the semi-naive one does, and is refused
	// like the dense engine on negative weights. It is
	// connectivity-only: leg facts carry the presence marker 1 instead
	// of a path cost (the convention of ProblemReachability
	// complementary tables), so it answers connectivity on every store
	// but its Cost is meaningless.
	EngineBitset
	// EngineDense runs the entry-set-restricted dense cost kernel
	// (tc.DenseGraph.CostFromCtx) over the CSR of the augmented fragment
	// that the site builds once and reuses across legs. Unlike the
	// bitset engine it carries real path costs, so it answers both cost
	// and connectivity queries — the kernel-class engine for the paper's
	// headline workload.
	EngineDense
)

// engines is the engine table, indexed by Engine: each engine's name
// (as CLI flags and the wire spell it) and the two capabilities the
// layers above branch on — costCapable (leg facts carry path costs, so
// cost queries may use it) and vectorSeeded (it has a multi-source
// primitive seeded with a cost vector, which pipelined evaluation
// needs). Everything that names, parses, validates or admits an engine
// (here, tcq.Engine, tcq.Plan, phe, sim) reads it, so an engine added
// later is one row plus its kernel dispatch in ExecuteLegTableCtx.
var engines = [...]struct {
	name                      string
	costCapable, vectorSeeded bool
}{
	EngineDijkstra:  {"dijkstra", true, true},
	EngineSemiNaive: {"seminaive", true, false},
	EngineBitset:    {"bitset", false, false},
	EngineDense:     {"dense", true, true},
}

// Engines lists every engine, in value order.
func Engines() []Engine {
	out := make([]Engine, len(engines))
	for i := range out {
		out[i] = Engine(i)
	}
	return out
}

// EngineNames spells the engines satisfying keep (nil keeps all) the
// way error messages list alternatives: "a, b or c".
func EngineNames(keep func(Engine) bool) string {
	var names []string
	for _, e := range Engines() {
		if keep == nil || keep(e) {
			names = append(names, e.String())
		}
	}
	if n := len(names); n > 1 {
		return strings.Join(names[:n-1], ", ") + " or " + names[n-1]
	}
	return strings.Join(names, "")
}

// String names the engine the way the CLI flags spell it.
func (e Engine) String() string {
	if ValidEngine(e) {
		return engines[e].name
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// CostCapable reports whether the engine's leg facts carry path costs
// (otherwise it answers connectivity only); false for an unknown engine.
func (e Engine) CostCapable() bool { return ValidEngine(e) && engines[e].costCapable }

// VectorSeeded reports whether the engine can run a pipelined leg, a
// search seeded with the running cost vector; false for an unknown one.
func (e Engine) VectorSeeded() bool { return ValidEngine(e) && engines[e].vectorSeeded }

// ParseEngine resolves an engine name, case-insensitively. Unknown
// names return an error wrapping ErrUnknownEngine — call sites must
// branch with errors.Is, never by matching engine-name strings
// themselves.
func ParseEngine(name string) (Engine, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for e, row := range engines {
		if row.name == want {
			return Engine(e), nil
		}
	}
	return 0, fmt.Errorf("dsa: %w %q (want %s)", ErrUnknownEngine, name, EngineNames(nil))
}

// ValidEngine reports whether e is a known engine — the single source
// of truth layers above (the serving layer, CLIs) check against, so an
// engine added here is automatically accepted everywhere.
func ValidEngine(e Engine) bool { return e >= 0 && int(e) < len(engines) }
