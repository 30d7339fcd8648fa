package fragment

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Patch is a sequence of edge edits in progress against a
// Fragmentation: the write path's way to a new Fragmentation whose cost
// is the fragments the edits touched, not the graph. Each edit lands in
// exactly one fragment's edge set, the one place a fragmentation keeps
// its edges, so the edge sets stay a partition of the graph's edges
// without New's O(E) re-validation. The Fragmentation being patched is
// never modified.
//
// A Patch is single-use and not safe for concurrent use.
type Patch struct {
	fr *Fragmentation
	// work holds a private, sorted copy of the edge set of every
	// fragment edited so far.
	work map[int][]graph.Edge
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
// equality.
func (p *Patch) find(frag int, e graph.Edge) (int, bool) {
	es := p.edges(frag)
	i, _ := slices.BinarySearchFunc(es, e, edgeCmp)
	return i, i < len(es) && es[i] == e
}

// Size returns the number of edges fragment frag has after the edits so
// far.
func (p *Patch) Size(frag int) int { return len(p.edges(frag)) }

// Touched reports whether any edit so far went to fragment frag; once
// Apply has run, whether they changed its edge set.
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
// fragmentation.
func (p *Patch) Insert(frag int, e graph.Edge) {
	i, _ := p.find(frag, e)
	p.work[frag] = slices.Insert(p.private(frag), i, e)
}

// Delete removes one occurrence of e from fragment frag. It reports
// false, changing nothing, when the fragment does not hold e.
func (p *Patch) Delete(frag int, e graph.Edge) bool {
	i, ok := p.find(frag, e)
	if !ok {
		return false
	}
	p.work[frag] = slices.Delete(p.private(frag), i, i+1)
	return true
}

// Apply returns the patched Fragmentation. It shares the node table;
// untouched fragments are shared by pointer, and a touched one keeps
// its node list unless an edit gave a node its first edge in the
// fragment or took its last. Only then are the membership table, the
// disconnection sets and the fragmentation graph derived again. A
// fragment whose edits cancel out — its edge set ends as it began, say
// an edge inserted and deleted again — counts as untouched and is shared
// by pointer. A patch that left a fragment without edges is refused, as
// New refuses an empty edge set.
func (p *Patch) Apply() (*Fragmentation, error) {
	next := &Fragmentation{ids: p.fr.ids, coords: p.fr.coords, frags: slices.Clone(p.fr.frags), meet: p.fr.meet}
	moved := false
	for frag, es := range p.work {
		if len(es) == 0 {
			return nil, fmt.Errorf("fragment: patch leaves fragment %d empty", frag)
		}
		old := p.fr.frags[frag]
		if slices.Equal(es, old.Edges) {
			delete(p.work, frag)
			continue
		}
		nodes, changed := patchNodes(old.nodes, old.Edges, es)
		next.frags[frag] = &Fragment{ID: frag, Edges: slices.Clip(es), nodes: nodes}
		moved = moved || changed
	}
	if moved {
		next.meet = newMeeting(next.ids, next.frags)
	}
	return next, nil
}

// patchNodes returns the node set of the edge set es, given nodes, the
// node set of the edge set old it replaces, and whether the two differ;
// both edge sets are in deterministic order. Only the endpoints of edges
// in one set and not the other can have entered or left the node set:
// each is checked against es in at most one pass, and nodes is returned
// itself when none did.
func patchNodes(nodes []graph.NodeID, old, es []graph.Edge) ([]graph.NodeID, bool) {
	var ends []graph.NodeID
	for i, j := 0, 0; i < len(old) || j < len(es); {
		switch {
		case j == len(es) || i < len(old) && edgeCmp(old[i], es[j]) < 0:
			ends, i = append(ends, old[i].From, old[i].To), i+1
		case i == len(old) || edgeCmp(old[i], es[j]) > 0:
			ends, j = append(ends, es[j].From, es[j].To), j+1
		default:
			i, j = i+1, j+1
		}
	}
	slices.Sort(ends)
	ends = slices.Compact(ends)
	// es is sorted by tail, so a tail is one search away; only the ends
	// with no out-edge left need the pass over the heads.
	kept, left := make([]bool, len(ends)), 0
	for k, id := range ends {
		_, kept[k] = slices.BinarySearchFunc(es, id, func(e graph.Edge, id graph.NodeID) int { return cmp.Compare(e.From, id) })
		if !kept[k] {
			left++
		}
	}
	for i := 0; left > 0 && i < len(es); i++ {
		if k, ok := slices.BinarySearch(ends, es[i].To); ok && !kept[k] {
			kept[k], left = true, left-1
		}
	}
	out, changed := nodes, false
	for k, id := range ends {
		i, had := slices.BinarySearch(out, id)
		if had == kept[k] {
			continue
		}
		if !changed {
			out, changed = slices.Clone(nodes), true
		}
		if had {
			out = slices.Delete(out, i, i+1)
		} else {
			out = slices.Insert(out, i, id)
		}
	}
	return slices.Clip(out), changed
}
