package dsa

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/graph"
)

// Leg is one per-site unit of work of a query plan: compute, inside the
// site's augmented fragment, the shortest-path costs from every entry
// node to every exit node. Entry nodes are the query source or the
// nodes of the incoming disconnection set; exit nodes are the outgoing
// disconnection set or the query target — "disconnection sets introduce
// additional selections in the processing of the recursive query, they
// act as intermediate nodes that must be mandatorily traversed" (§2.1).
type Leg struct {
	// SiteID is the fragment/site executing this leg.
	SiteID int
	// Entry and Exit are the selection sets, sorted.
	Entry, Exit []graph.NodeID
}

// chainKey renders a chain exactly as fmt.Sprint does ("[0 3 7]"): the
// dedup key of chain enumeration and, compared as strings, the order
// plans list chains in — which is what breaks BestChain ties.
func chainKey(chain []int) string {
	b := append(make([]byte, 0, 2+4*len(chain)), '[')
	for i, f := range chain {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(f), 10)
	}
	return string(append(b, ']'))
}

// Plan is the fragment-level strategy for one source/target query: the
// chains of fragments to traverse and the deduplicated legs the sites
// must compute. For same-fragment queries the plan degenerates to one
// single-site leg per hosting fragment — "queries about the shortest
// path of two cities in Holland can be answered by the Dutch railway
// computer system alone" (§2.1).
type Plan struct {
	// Source and Target are the query endpoints.
	Source, Target graph.NodeID
	// SameFragment reports whether source and target share a fragment.
	SameFragment bool
	// Chains lists the fragment chains considered; each chain is a
	// sequence of fragment IDs from a fragment containing Source to a
	// fragment containing Target. Same-fragment plans have
	// single-element chains.
	Chains [][]int
	// Legs are the distinct per-site computations, in deterministic
	// order.
	Legs []Leg
	// Truncated reports that chain enumeration hit the MaxChains bound
	// (only possible for cyclic fragmentation graphs); the answer is
	// then an upper bound rather than exact.
	Truncated bool
	// chainLegs maps each chain to the indices in Legs of the legs
	// along it.
	chainLegs [][]int
}

// NewPlan computes the plan for a shortest-path (or reachability)
// query from source to target.
func (st *Store) NewPlan(source, target graph.NodeID) (*Plan, error) {
	if !st.fr.HasNode(source) {
		return nil, fmt.Errorf("dsa: %w: source node %d not in graph", ErrUnknownNode, source)
	}
	if !st.fr.HasNode(target) {
		return nil, fmt.Errorf("dsa: %w: target node %d not in graph", ErrUnknownNode, target)
	}
	// A node the updates left in no fragment has no fragment to chain
	// from or to: the loops below find nothing and the plan stays
	// chain-less — unreachable, except from itself (PlanResult).
	srcFrags := st.fr.FragmentsOf(source)
	dstFrags := st.fr.FragmentsOf(target)
	p := &Plan{Source: source, Target: target}

	// Same-fragment short-circuit.
	shared := intersect(srcFrags, dstFrags)
	if len(shared) > 0 {
		p.SameFragment = true
		for _, f := range shared {
			p.Chains = append(p.Chains, []int{f})
		}
	} else {
		fg := st.fr.FragmentationGraph()
		byKey := make(map[string][]int)
		var keys []string
		for _, fs := range srcFrags {
			for _, ft := range dstFrags {
				chains, err := fg.Chains(fs, ft, st.maxChains)
				if err != nil {
					return nil, err
				}
				if st.maxChains > 0 && len(chains) == st.maxChains {
					p.Truncated = true
				}
				for _, c := range chains {
					k := chainKey(c)
					if _, dup := byKey[k]; dup {
						continue
					}
					byKey[k] = c
					keys = append(keys, k)
				}
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			p.Chains = append(p.Chains, byKey[k])
		}
	}
	if len(p.Chains) == 0 {
		// No chain connects the fragments: the nodes are in different
		// components of the fragmentation graph, hence unreachable.
		return p, nil
	}
	st.buildLegs(p)
	return p, nil
}

// PlanChains builds a plan over externally chosen fragment chains — the
// hook package phe uses to impose its high-speed-network routing
// instead of exhaustive chain enumeration. Every chain must start at a
// fragment containing source, end at one containing target, and have a
// non-empty disconnection set between consecutive fragments.
func (st *Store) PlanChains(source, target graph.NodeID, chains [][]int) (*Plan, error) {
	if !st.fr.HasNode(source) {
		return nil, fmt.Errorf("dsa: %w: source node %d not in graph", ErrUnknownNode, source)
	}
	if !st.fr.HasNode(target) {
		return nil, fmt.Errorf("dsa: %w: target node %d not in graph", ErrUnknownNode, target)
	}
	if len(chains) == 0 {
		return nil, fmt.Errorf("dsa: PlanChains: no chains given")
	}
	p := &Plan{Source: source, Target: target}
	for _, chain := range chains {
		if len(chain) == 0 {
			return nil, fmt.Errorf("dsa: PlanChains: empty chain")
		}
		for i, f := range chain {
			if f < 0 || f >= len(st.sites) {
				return nil, fmt.Errorf("dsa: %w: PlanChains: fragment %d out of range", ErrUnknownSite, f)
			}
			if i > 0 {
				if chain[i-1] == f {
					return nil, fmt.Errorf("dsa: PlanChains: chain repeats fragment %d consecutively", f)
				}
				if len(st.fr.DisconnectionSet(chain[i-1], f)) == 0 {
					return nil, fmt.Errorf("dsa: PlanChains: fragments %d and %d share no disconnection set", chain[i-1], f)
				}
			}
		}
		if !st.sites[chain[0]].Frag.HasNode(source) {
			return nil, fmt.Errorf("dsa: PlanChains: chain head %d does not contain source %d", chain[0], source)
		}
		if !st.sites[chain[len(chain)-1]].Frag.HasNode(target) {
			return nil, fmt.Errorf("dsa: PlanChains: chain tail %d does not contain target %d", chain[len(chain)-1], target)
		}
		p.Chains = append(p.Chains, append([]int(nil), chain...))
	}
	p.SameFragment = len(p.Chains[0]) == 1
	st.buildLegs(p)
	return p, nil
}

// buildLegs fills p.Legs and p.chainLegs from p.Chains, deduplicating
// identical legs — the same site, entry set and exit set — across
// chains.
func (st *Store) buildLegs(p *Plan) {
	source, target := []graph.NodeID{p.Source}, []graph.NodeID{p.Target}
	addLeg := func(l Leg) int {
		for i, o := range p.Legs {
			if o.SiteID == l.SiteID && slices.Equal(o.Entry, l.Entry) && slices.Equal(o.Exit, l.Exit) {
				return i
			}
		}
		p.Legs = append(p.Legs, l)
		return len(p.Legs) - 1
	}
	for _, chain := range p.Chains {
		idxs := make([]int, len(chain))
		for i, f := range chain {
			entry, exit := source, target
			if i > 0 {
				entry = st.fr.DisconnectionSet(chain[i-1], f)
			}
			if i+1 < len(chain) {
				exit = st.fr.DisconnectionSet(f, chain[i+1])
			}
			idxs[i] = addLeg(Leg{SiteID: f, Entry: entry, Exit: exit})
		}
		p.chainLegs = append(p.chainLegs, idxs)
	}
}

// SitesInvolved returns the distinct site IDs the plan touches,
// ascending — the paper's "involving in the computation only the
// computers along the chain of fragments".
func (p *Plan) SitesInvolved() []int {
	set := make(map[int]struct{})
	for _, l := range p.Legs {
		set[l.SiteID] = struct{}{}
	}
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// intersect returns the sorted intersection of two ascending int
// slices.
func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
