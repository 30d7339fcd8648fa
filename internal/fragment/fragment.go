// Package fragment defines the fragmentation model of the ICDE'93
// paper: a partition of the edge relation R into fragments R_i, the
// subgraphs G_i they induce, the disconnection sets DS_ij = V_i ∩ V_j,
// the fragmentation graph G' (one node per fragment, one edge per
// non-empty disconnection set), and the characteristics reported in
// Tables 1–3 (average fragment size F, average disconnection set size
// DS, and their average deviations AF and ADS).
//
// The three fragmentation algorithms of §3 live in the subpackages
// center, bea and linear; each produces a *Fragmentation that this
// package validates and measures.
package fragment

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Fragment is one element R_i of the partition: a set of edges plus the
// node set V_i they induce.
type Fragment struct {
	// ID is the fragment's index within its fragmentation.
	ID int
	// Edges are the fragment's edges in deterministic (From, To,
	// Weight) order. Fragments are immutable once built: an update
	// replaces a touched fragment (Patch) and shares the rest.
	Edges []graph.Edge
	// nodes is the induced node set, each node mapped to the number of
	// edge endpoints the fragment has at it (a self-loop counts twice).
	// The count is what lets a Patch tell that an edit took a node's
	// last edge here, or gave it its first, without rescanning Edges.
	nodes map[graph.NodeID]int32
}

// edgeCmp is the deterministic (From, To, Weight) edge order.
func edgeCmp(a, b graph.Edge) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	return cmp.Compare(a.Weight, b.Weight)
}

// newFragment builds a fragment from its edge set.
func newFragment(id int, edges []graph.Edge) *Fragment {
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, edgeCmp)
	return adoptFragment(id, sorted)
}

// adoptFragment builds a fragment around edges already in deterministic
// order, without copying them.
func adoptFragment(id int, edges []graph.Edge) *Fragment {
	f := &Fragment{ID: id, Edges: edges, nodes: make(map[graph.NodeID]int32)}
	for _, e := range edges {
		f.nodes[e.From]++
		f.nodes[e.To]++
	}
	return f
}

// Size returns the number of edges — the paper's fragment size measure
// ("the number of tuples in a fragment is a good indication for the
// workload of a processor", §2.2).
func (f *Fragment) Size() int { return len(f.Edges) }

// HasNode reports whether id belongs to the fragment's induced node
// set.
func (f *Fragment) HasNode(id graph.NodeID) bool {
	_, ok := f.nodes[id]
	return ok
}

// Nodes returns the induced node set in ascending order.
func (f *Fragment) Nodes() []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(f.nodes))
	for id := range f.nodes {
		ids = append(ids, id)
	}
	return graph.SortNodeIDs(ids)
}

// NumNodes returns |V_i|.
func (f *Fragment) NumNodes() int { return len(f.nodes) }

// EachNode calls fn for every node of the induced node set, in
// arbitrary order — the allocation-free counterpart of Nodes for bulk
// callers that do not need the sorted order.
func (f *Fragment) EachNode(fn func(graph.NodeID)) {
	for id := range f.nodes {
		fn(id)
	}
}

// Subgraph materialises G_i, copying coordinates from the base graph.
func (f *Fragment) Subgraph(base *graph.Graph) *graph.Graph {
	return base.Subgraph(f.Edges)
}

// Fragmentation is a validated partition of a graph's edges. It is
// immutable: an update produces a new Fragmentation (Patch) that shares
// every part the update did not reach with the one it came from.
type Fragmentation struct {
	base  *graph.Graph
	frags []*Fragment
	// byNode maps each node to the (sorted) IDs of the fragments whose
	// induced node set contains it; nodes in ≥ 2 fragments are exactly
	// the disconnection-set nodes.
	byNode map[graph.NodeID][]int
	// meet is everything byNode implies about how the fragments meet,
	// built once per membership (see newMeeting).
	meet *meeting
}

// meeting is how the fragments of a fragmentation meet each other: the
// disconnection sets, their union, and the fragmentation graph. All
// three are functions of byNode alone, so a fragmentation derives them
// once and a Patch that changes no node's fragment membership carries
// the pointer over.
type meeting struct {
	ds     map[Pair][]graph.NodeID
	shared map[graph.NodeID]bool
	fg     *FragGraph
}

// newMeeting derives the disconnection sets, the shared-node set and
// the fragmentation graph of n fragments from the membership table.
func newMeeting(n int, byNode map[graph.NodeID][]int) *meeting {
	m := &meeting{
		ds:     make(map[Pair][]graph.NodeID),
		shared: make(map[graph.NodeID]bool),
		fg:     &FragGraph{n: n, adj: make(map[int][]int)},
	}
	for id, fs := range byNode {
		if len(fs) < 2 {
			continue
		}
		m.shared[id] = true
		for a := 0; a < len(fs); a++ {
			for b := a + 1; b < len(fs); b++ {
				p := Pair{I: fs[a], J: fs[b]}
				m.ds[p] = append(m.ds[p], id)
			}
		}
	}
	for p, nodes := range m.ds {
		graph.SortNodeIDs(nodes)
		m.fg.adj[p.I] = append(m.fg.adj[p.I], p.J)
		m.fg.adj[p.J] = append(m.fg.adj[p.J], p.I)
	}
	for i := range m.fg.adj {
		sort.Ints(m.fg.adj[i])
	}
	return m
}

// assemble builds the Fragmentation over fragments whose edge sets are
// known to partition g's edges.
func assemble(g *graph.Graph, frags []*Fragment) *Fragmentation {
	fr := &Fragmentation{base: g, frags: frags, byNode: make(map[graph.NodeID][]int)}
	for _, f := range frags {
		for id := range f.nodes {
			fr.byNode[id] = append(fr.byNode[id], f.ID)
		}
	}
	fr.meet = newMeeting(len(frags), fr.byNode)
	return fr
}

// New validates that the edge sets form an exact partition of g's edges
// — every edge in exactly one fragment — and builds the Fragmentation.
// Empty edge sets are rejected: an empty fragment would be a processor
// with no work and a hole in the fragmentation graph.
func New(g *graph.Graph, edgeSets [][]graph.Edge) (*Fragmentation, error) {
	if g == nil {
		return nil, fmt.Errorf("fragment: nil base graph")
	}
	if len(edgeSets) == 0 {
		return nil, fmt.Errorf("fragment: no fragments")
	}
	// Both sides sort alike (g.Edges, newFragment): a fragment claims its
	// edges, each occurrence once (taken), walking forward over base.
	base := g.Edges()
	taken := make([]bool, len(base))
	frags := make([]*Fragment, 0, len(edgeSets))
	for i, edges := range edgeSets {
		if len(edges) == 0 {
			return nil, fmt.Errorf("fragment: fragment %d is empty", i)
		}
		f := newFragment(i, edges)
		j := 0
		for _, e := range f.Edges {
			// Mostly a run of the base list: try the next edge first.
			if j == len(base) || base[j] != e {
				at, _ := slices.BinarySearchFunc(base[j:], e, edgeCmp)
				j += at
			}
			for j < len(base) && base[j] == e && taken[j] {
				j++
			}
			if j == len(base) || base[j] != e {
				return nil, fmt.Errorf("fragment: edge %v not in base graph or already assigned", e)
			}
			taken[j] = true
			j++
		}
		frags = append(frags, f)
	}
	if j := slices.Index(taken, false); j >= 0 {
		return nil, fmt.Errorf("fragment: edge %v not assigned to any fragment", base[j])
	}
	return assemble(g, frags), nil
}

// Restore builds a Fragmentation from edge sets already known to
// partition g's edges — the trusted constructor for the binary
// snapshot loader, whose input carried a checksum and was written from
// a validated Fragmentation. It skips New's O(E) multiset partition
// check and newFragment's re-sort (snapshots store each fragment's
// edges in their deterministic order), and adopts the edge slices
// without copying. Empty inputs are still rejected; everything else is
// trusted.
func Restore(g *graph.Graph, edgeSets [][]graph.Edge) (*Fragmentation, error) {
	if g == nil {
		return nil, fmt.Errorf("fragment: nil base graph")
	}
	if len(edgeSets) == 0 {
		return nil, fmt.Errorf("fragment: no fragments")
	}
	frags := make([]*Fragment, 0, len(edgeSets))
	for i, edges := range edgeSets {
		if len(edges) == 0 {
			return nil, fmt.Errorf("fragment: fragment %d is empty", i)
		}
		frags = append(frags, adoptFragment(i, edges))
	}
	return assemble(g, frags), nil
}

// Base returns the fragmented graph.
func (fr *Fragmentation) Base() *graph.Graph { return fr.base }

// NumFragments returns the number of fragments n.
func (fr *Fragmentation) NumFragments() int { return len(fr.frags) }

// Fragment returns fragment i.
func (fr *Fragmentation) Fragment(i int) *Fragment { return fr.frags[i] }

// Fragments returns all fragments in ID order.
func (fr *Fragmentation) Fragments() []*Fragment { return fr.frags }

// FragmentsOf returns the IDs of the fragments containing node id
// (ascending); nil if the node appears in none (isolated in the base
// graph).
func (fr *Fragmentation) FragmentsOf(id graph.NodeID) []int { return fr.byNode[id] }

// SharedNodes returns the set of nodes belonging to two or more
// fragments — the union of every disconnection set. A node outside the
// set has all of its base-graph edges inside its single fragment,
// which is what lets the site builder share the base adjacency lists
// for such nodes instead of re-deriving them. The set is the
// fragmentation's own, shared with every caller and with the
// fragmentations patched from this one: read-only.
func (fr *Fragmentation) SharedNodes() map[graph.NodeID]bool { return fr.meet.shared }

// Pair identifies an unordered fragment pair with I < J.
type Pair struct{ I, J int }

// MakePair normalises a fragment pair to I < J.
func MakePair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{I: a, J: b}
}

// DisconnectionSets returns every non-empty DS_ij = V_i ∩ V_j as a
// sorted node list, keyed by the normalised pair. Complementary
// information in the disconnection set approach is precomputed exactly
// for these node sets. The table is the fragmentation's own, shared
// with every caller and with the fragmentations patched from this one:
// neither the map nor its node lists may be modified.
func (fr *Fragmentation) DisconnectionSets() map[Pair][]graph.NodeID { return fr.meet.ds }

// DisconnectionSet returns DS_ij (sorted, read-only), or nil if empty.
func (fr *Fragmentation) DisconnectionSet(a, b int) []graph.NodeID {
	return fr.meet.ds[MakePair(a, b)]
}

// SameDisconnectionSets reports whether fr and o have the same
// disconnection sets — the same pairs with the same node lists.
func (fr *Fragmentation) SameDisconnectionSets(o *Fragmentation) bool {
	if fr.meet == o.meet {
		return true
	}
	if len(fr.meet.ds) != len(o.meet.ds) {
		return false
	}
	for p, nodes := range fr.meet.ds {
		if !slices.Equal(nodes, o.meet.ds[p]) {
			return false
		}
	}
	return true
}

// BorderNodes returns the nodes of fragment i shared with any other
// fragment (the union of its disconnection sets), sorted.
func (fr *Fragmentation) BorderNodes(i int) []graph.NodeID {
	var ids []graph.NodeID
	for id, fs := range fr.byNode {
		if len(fs) < 2 {
			continue
		}
		for _, f := range fs {
			if f == i {
				ids = append(ids, id)
				break
			}
		}
	}
	return graph.SortNodeIDs(ids)
}
