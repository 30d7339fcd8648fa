package fragment

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/graph"
)

// Patch is a sequence of edge edits in progress against a
// Fragmentation: the write path's way to a new Fragmentation whose cost
// is the fragments the edits touched, not the graph. Each edit lands in
// exactly one fragment's edge set now and, replayed by Apply, in the
// base graph — the same edit in both places, which is what keeps the
// edge sets an exact partition of the base's edges without New's O(E)
// re-validation. The Fragmentation being patched is never modified.
//
// A Patch is single-use and not safe for concurrent use.
type Patch struct {
	fr *Fragmentation
	// work holds a private, sorted copy of the edge set of every
	// fragment edited so far.
	work  map[int][]graph.Edge
	edits []edit
}

// edit is one recorded insert or delete.
type edit struct {
	frag int
	edge graph.Edge
	del  bool
}

// NewPatch starts an empty patch against fr.
func (fr *Fragmentation) NewPatch() *Patch {
	return &Patch{fr: fr, work: make(map[int][]graph.Edge)}
}

// edges returns fragment frag's edge set as edited so far.
func (p *Patch) edges(frag int) []graph.Edge {
	if es, ok := p.work[frag]; ok {
		return es
	}
	return p.fr.frags[frag].Edges
}

// private returns the patch's own copy of fragment frag's edge set,
// made on the first edit.
func (p *Patch) private(frag int) []graph.Edge {
	es, ok := p.work[frag]
	if !ok {
		old := p.fr.frags[frag].Edges
		es = append(make([]graph.Edge, 0, len(old)+4), old...)
		p.work[frag] = es
	}
	return es
}

// find returns where e sits, or would be inserted, in fragment frag's
// edge set as edited so far, and whether it is there. Presence is exact
// equality, the same test graph.RemoveEdge applies to the base.
func (p *Patch) find(frag int, e graph.Edge) (int, bool) {
	es := p.edges(frag)
	i, _ := slices.BinarySearchFunc(es, e, edgeCmp)
	return i, i < len(es) && es[i] == e
}

// Size returns the number of edges fragment frag has after the edits so
// far.
func (p *Patch) Size(frag int) int { return len(p.edges(frag)) }

// Touched reports whether any edit so far went to fragment frag.
func (p *Patch) Touched(frag int) bool {
	_, ok := p.work[frag]
	return ok
}

// Contains reports whether fragment frag holds e after the edits so
// far.
func (p *Patch) Contains(frag int, e graph.Edge) bool {
	_, ok := p.find(frag, e)
	return ok
}

// Insert adds e to fragment frag, at its place in the deterministic
// edge order. The caller vouches that both endpoints are nodes of the
// base graph.
func (p *Patch) Insert(frag int, e graph.Edge) {
	i, _ := p.find(frag, e)
	p.work[frag] = slices.Insert(p.private(frag), i, e)
	p.edits = append(p.edits, edit{frag: frag, edge: e})
}

// Delete removes one occurrence of e from fragment frag. It reports
// false, changing nothing, when the fragment does not hold e.
func (p *Patch) Delete(frag int, e graph.Edge) bool {
	i, ok := p.find(frag, e)
	if !ok {
		return false
	}
	p.work[frag] = slices.Delete(p.private(frag), i, i+1)
	p.edits = append(p.edits, edit{frag: frag, edge: e, del: true})
	return true
}

// Apply returns the patched Fragmentation. Its base graph is a
// CloneShared of the old one with the edits replayed copy-on-write, so
// the two share every adjacency list but those of the edits' endpoints;
// untouched fragments are shared by pointer; the membership table is
// shared unless an edit gave a node its first edge in a fragment or
// took its last, and only then are the disconnection sets, the
// shared-node set and the fragmentation graph derived again. A patch
// that left a fragment without edges is refused, as New refuses an
// empty edge set.
func (p *Patch) Apply() (*Fragmentation, error) {
	for frag, es := range p.work {
		if len(es) == 0 {
			return nil, fmt.Errorf("fragment: patch leaves fragment %d empty", frag)
		}
	}
	base := p.fr.base.CloneShared()
	for _, ed := range p.edits {
		if !ed.del {
			base.AddEdge(ed.edge)
		} else if !base.RemoveEdge(ed.edge) {
			return nil, fmt.Errorf("fragment: patch: edge %v of fragment %d is not in the base graph", ed.edge, ed.frag)
		}
	}

	next := &Fragmentation{base: base, frags: slices.Clone(p.fr.frags), byNode: p.fr.byNode, meet: p.fr.meet}
	for frag, es := range p.work {
		next.frags[frag] = &Fragment{ID: frag, Edges: slices.Clip(es), nodes: maps.Clone(p.fr.frags[frag].nodes)}
	}
	for _, ed := range p.edits {
		d := int32(1)
		if ed.del {
			d = -1
		}
		nodes := next.frags[ed.frag].nodes
		nodes[ed.edge.From] += d
		nodes[ed.edge.To] += d
	}

	// Only the edits' endpoints can have entered or left a fragment's
	// node set; compare where each ended up with where it started (an
	// insert undone later in the same patch is no change).
	moved := false
	for _, ed := range p.edits {
		nodes := next.frags[ed.frag].nodes
		for _, id := range [2]graph.NodeID{ed.edge.From, ed.edge.To} {
			n, present := nodes[id]
			if present && n == 0 {
				delete(nodes, id)
			}
			was := p.fr.frags[ed.frag].nodes[id] > 0
			if was == (n > 0) {
				continue
			}
			if !moved {
				moved = true
				next.byNode = maps.Clone(p.fr.byNode)
			}
			if fs := withMember(next.byNode[id], ed.frag, n > 0); len(fs) > 0 {
				next.byNode[id] = fs
			} else {
				delete(next.byNode, id)
			}
		}
	}
	if moved {
		next.meet = newMeeting(len(next.frags), next.byNode)
	}
	return next, nil
}

// withMember returns a fresh copy of the ascending fragment list fs
// with frag present or absent as asked; fs itself, which an older
// Fragmentation may share, is left alone.
func withMember(fs []int, frag int, present bool) []int {
	i, found := slices.BinarySearch(fs, frag)
	switch {
	case found == present:
		return fs
	case present:
		return slices.Insert(slices.Clone(fs), i, frag)
	default:
		return slices.Delete(slices.Clone(fs), i, i+1)
	}
}
