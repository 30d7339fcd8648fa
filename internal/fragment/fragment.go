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
	// nodes is the induced node set V_i, the endpoints of Edges,
	// ascending and distinct.
	nodes []graph.NodeID
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
	return &Fragment{ID: id, Edges: edges, nodes: endpoints(edges)}
}

// endpoints returns the distinct endpoints of edges, ascending.
func endpoints(edges []graph.Edge) []graph.NodeID {
	ids := make([]graph.NodeID, 0, 2*len(edges))
	for _, e := range edges {
		ids = append(ids, e.From, e.To)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	return append(make([]graph.NodeID, 0, len(ids)), ids...)
}

// Size returns the number of edges — the paper's fragment size measure
// ("the number of tuples in a fragment is a good indication for the
// workload of a processor", §2.2).
func (f *Fragment) Size() int { return len(f.Edges) }

// HasNode reports whether id belongs to the fragment's induced node
// set.
func (f *Fragment) HasNode(id graph.NodeID) bool {
	_, ok := graph.RowOf(f.nodes, id)
	return ok
}

// Nodes returns the induced node set in ascending order. The slice is
// the fragment's own, shared with its site's CSR and with the
// fragmentations patched from this one: read-only.
func (f *Fragment) Nodes() []graph.NodeID { return f.nodes }

// NumNodes returns |V_i|.
func (f *Fragment) NumNodes() int { return len(f.nodes) }

// Subgraph materialises G_i, copying coordinates from the base graph.
func (f *Fragment) Subgraph(base *graph.Graph) *graph.Graph {
	return base.Subgraph(f.Edges)
}

// Fragmentation is a validated partition of a graph's edges. It keeps
// the graph as its node table — every node, isolated ones included,
// ascending by id, with its coordinates — and its fragments, which are
// the only place the edges are stored. It is immutable: an update
// produces a new Fragmentation (Patch) that shares every part the
// update did not reach with the one it came from, the node table
// always.
type Fragmentation struct {
	ids    []graph.NodeID
	coords []graph.Coord // coords[k] is the position of ids[k]
	frags  []*Fragment
	// meet is everything the fragments' node sets imply about how the
	// fragments meet, built once per membership (see newMeeting).
	meet *meeting
}

// meeting is how the fragments of a fragmentation meet each other: the
// membership table, the disconnection sets and the fragmentation graph.
// All three are functions of the fragments' node sets alone, so a
// fragmentation derives them once and a Patch that changes no fragment's
// node set carries the pointer over.
type meeting struct {
	// The fragments whose node set holds node ids[k] are
	// of[off[k]:off[k+1]], ascending; nodes in ≥ 2 fragments are exactly
	// the disconnection-set nodes.
	off []int32
	of  []int
	// pairs are the fragment pairs with a non-empty disconnection set,
	// ascending by (I, J), and sets[k] is DS of pairs[k], ascending.
	pairs []Pair
	sets  [][]graph.NodeID
	fg    *FragGraph
}

// newMeeting derives the membership table over the node table ids, the
// disconnection sets and the fragmentation graph of frags. Fragments in
// ID order fill each node's list ascending; every (pair, node) of a
// disconnection set, sorted, gives the pairs in (I, J) order and each
// set ascending.
func newMeeting(ids []graph.NodeID, frags []*Fragment) *meeting {
	m := &meeting{off: make([]int32, len(ids)+1)}
	for _, f := range frags {
		for _, id := range f.nodes {
			k, _ := graph.RowOf(ids, id)
			m.off[k+1]++
		}
	}
	for k := range ids {
		m.off[k+1] += m.off[k]
	}
	m.of = make([]int, m.off[len(ids)])
	next := slices.Clone(m.off[:len(ids)])
	for _, f := range frags {
		for _, id := range f.nodes {
			k, _ := graph.RowOf(ids, id)
			m.of[next[k]] = f.ID
			next[k]++
		}
	}
	type member struct {
		p  Pair
		id graph.NodeID
	}
	var members []member
	for k, id := range ids {
		fs := m.of[m.off[k]:m.off[k+1]]
		for a := 0; a < len(fs); a++ {
			for b := a + 1; b < len(fs); b++ {
				members = append(members, member{Pair{I: fs[a], J: fs[b]}, id})
			}
		}
	}
	slices.SortFunc(members, func(x, y member) int {
		return cmp.Or(comparePairs(x.p, y.p), cmp.Compare(x.id, y.id))
	})
	nodes := make([]graph.NodeID, len(members))
	lo := 0
	for k, x := range members {
		nodes[k] = x.id
		if k+1 == len(members) || members[k+1].p != x.p {
			m.pairs = append(m.pairs, x.p)
			m.sets = append(m.sets, nodes[lo:k+1:k+1])
			lo = k + 1
		}
	}
	// Pairs in (I, J) order list each fragment's neighbours ascending.
	m.fg = &FragGraph{adj: make([][]int, len(frags)), links: len(m.pairs)}
	for _, p := range m.pairs {
		m.fg.adj[p.I] = append(m.fg.adj[p.I], p.J)
		m.fg.adj[p.J] = append(m.fg.adj[p.J], p.I)
	}
	return m
}

// assemble builds the Fragmentation over a node table and fragments
// whose edge sets are known to partition the graph's edges.
func assemble(ids []graph.NodeID, coords []graph.Coord, frags []*Fragment) *Fragmentation {
	return &Fragmentation{ids: ids, coords: coords, frags: frags, meet: newMeeting(ids, frags)}
}

// New validates that the edge sets form an exact partition of g's edges
// — every edge in exactly one fragment — and builds the Fragmentation.
// Empty edge sets are rejected: an empty fragment would be a processor
// with no work and a hole in the fragmentation graph. So is an edge with
// a NaN weight, which equals no edge, itself included.
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
	ids := g.Nodes()
	coords := make([]graph.Coord, len(ids))
	for k, id := range ids {
		coords[k] = g.Coord(id)
	}
	return assemble(ids, coords, frags), nil
}

// Restore builds a Fragmentation from a node table — ids ascending and
// distinct, coords[k] the position of ids[k] — and edge sets already
// known to partition the graph's edges over those nodes: the trusted
// constructor for the binary snapshot loader, whose input carried a
// checksum and was written from a validated Fragmentation. It skips
// New's O(E) multiset partition check and newFragment's re-sort
// (snapshots store each fragment's edges in their deterministic order),
// and adopts the slices without copying. Empty inputs and an edge set
// out of (From, To, Weight) order — which the node sets and Patch's
// searches rely on — are rejected; everything else is trusted.
func Restore(ids []graph.NodeID, coords []graph.Coord, edgeSets [][]graph.Edge) (*Fragmentation, error) {
	if len(edgeSets) == 0 {
		return nil, fmt.Errorf("fragment: no fragments")
	}
	frags := make([]*Fragment, 0, len(edgeSets))
	for i, edges := range edgeSets {
		if len(edges) == 0 {
			return nil, fmt.Errorf("fragment: fragment %d is empty", i)
		}
		if !slices.IsSortedFunc(edges, edgeCmp) {
			return nil, fmt.Errorf("fragment: fragment %d edges are not in (from, to, weight) order", i)
		}
		frags = append(frags, adoptFragment(i, edges))
	}
	return assemble(ids, coords, frags), nil
}

// Nodes returns every node of the fragmented graph, isolated ones
// included, in ascending order. The slice is the fragmentation's own,
// shared with the fragmentations patched from this one: read-only.
func (fr *Fragmentation) Nodes() []graph.NodeID { return fr.ids }

// NumNodes returns the number of nodes of the fragmented graph.
func (fr *Fragmentation) NumNodes() int { return len(fr.ids) }

// HasNode reports whether id is a node of the fragmented graph.
func (fr *Fragmentation) HasNode(id graph.NodeID) bool {
	_, ok := graph.RowOf(fr.ids, id)
	return ok
}

// Coord returns the coordinates of node id; the zero coordinate if id
// is not a node.
func (fr *Fragmentation) Coord(id graph.NodeID) graph.Coord {
	if k, ok := graph.RowOf(fr.ids, id); ok {
		return fr.coords[k]
	}
	return graph.Coord{}
}

// CSR snapshots the whole fragmented graph: every node, and each
// node's out-edges fragment by fragment.
func (fr *Fragmentation) CSR() *graph.CSR {
	runs := make([][]graph.Edge, len(fr.frags))
	for i, f := range fr.frags {
		runs[i] = f.Edges
	}
	return graph.NewCSR(fr.ids, runs...)
}

// Base builds the fragmented graph from the node table and the
// fragments, fresh on each call: each node's out-edges are listed
// fragment by fragment, in the order CSR lists them. It is for cold
// readers — reference searches, simulations, examples — not for a
// serving path.
func (fr *Fragmentation) Base() *graph.Graph {
	g := graph.NewWithCapacity(len(fr.ids))
	for k, id := range fr.ids {
		g.AddNode(id, fr.coords[k])
	}
	for _, f := range fr.frags {
		for _, e := range f.Edges {
			g.AddEdge(e)
		}
	}
	return g
}

// NumFragments returns the number of fragments n.
func (fr *Fragmentation) NumFragments() int { return len(fr.frags) }

// Fragment returns fragment i.
func (fr *Fragmentation) Fragment(i int) *Fragment { return fr.frags[i] }

// Fragments returns all fragments in ID order.
func (fr *Fragmentation) Fragments() []*Fragment { return fr.frags }

// FragmentsOf returns the IDs of the fragments containing node id
// (ascending); nil if the node appears in none (isolated in the base
// graph, or not a node). The slice is clipped and read-only.
func (fr *Fragmentation) FragmentsOf(id graph.NodeID) []int {
	k, ok := graph.RowOf(fr.ids, id)
	if !ok {
		return nil
	}
	lo, hi := fr.meet.off[k], fr.meet.off[k+1]
	if lo == hi {
		return nil
	}
	return fr.meet.of[lo:hi:hi]
}

// Pair identifies an unordered fragment pair with I < J.
type Pair struct{ I, J int }

// MakePair normalises a fragment pair to I < J.
func MakePair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{I: a, J: b}
}

// comparePairs orders pairs by (I, J).
func comparePairs(a, b Pair) int {
	return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
}

// DisconnectionPairs returns the fragment pairs with a non-empty
// disconnection set DS_ij = V_i ∩ V_j, ascending by (I, J): the order
// the complementary information is computed, deployed and written in.
// The slice is the fragmentation's own, shared with every caller and
// with the fragmentations patched from this one: read-only.
func (fr *Fragmentation) DisconnectionPairs() []Pair { return fr.meet.pairs }

// DisconnectionSets returns the node list of every non-empty
// disconnection set, sorted, in DisconnectionPairs order: the k-th is
// DS of the k-th pair. Complementary information in the disconnection
// set approach is precomputed exactly for these node sets. The slice
// and its node lists are the fragmentation's own, shared like
// DisconnectionPairs: read-only.
func (fr *Fragmentation) DisconnectionSets() [][]graph.NodeID { return fr.meet.sets }

// DisconnectionSet returns DS_ij (sorted, read-only), or nil if empty.
func (fr *Fragmentation) DisconnectionSet(a, b int) []graph.NodeID {
	if k, ok := slices.BinarySearchFunc(fr.meet.pairs, MakePair(a, b), comparePairs); ok {
		return fr.meet.sets[k]
	}
	return nil
}

// SameDisconnectionSets reports whether fr and o have the same
// disconnection sets — the same pairs with the same node lists.
func (fr *Fragmentation) SameDisconnectionSets(o *Fragmentation) bool {
	return fr.meet == o.meet || slices.Equal(fr.meet.pairs, o.meet.pairs) &&
		slices.EqualFunc(fr.meet.sets, o.meet.sets, slices.Equal)
}
