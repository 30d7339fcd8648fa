package graph

// StronglyConnectedComponents returns the strongly connected components
// of the directed graph in reverse topological order of the condensation
// (every edge of the condensation points from a later component to an
// earlier one in the returned slice), each sorted ascending: CSR().SCC()
// with rows mapped back to ids.
//
// SCC condensation is the classic preprocessing step for transitive
// closure on cyclic graphs — all members of a component reach exactly
// the same nodes — and package tc builds its condensation closure on
// it, and its bitset kernel on CSR.SCC.
func (g *Graph) StronglyConnectedComponents() [][]NodeID {
	c := g.CSR()
	rows, _ := c.SCC()
	comps := make([][]NodeID, len(rows))
	for i, comp := range rows {
		ids := make([]NodeID, len(comp))
		for j, k := range comp {
			ids[j] = c.IDs[k]
		}
		comps[i] = SortNodeIDs(ids)
	}
	return comps
}

// SCC runs Tarjan's algorithm over the snapshot's rows, iterative to
// survive deep recursion on path graphs, taking roots and out-edges in
// row order. comps lists the strongly connected components in reverse
// topological order of the condensation (every condensation edge points
// from a later component to an earlier one), each component's rows in
// the order they left Tarjan's stack and all of them windows of one
// array; compOf[k] is the component of row k. Parallel edges are
// harmless: the second visit of a neighbour changes nothing.
func (c *CSR) SCC() (comps [][]int32, compOf []int32) {
	n := len(c.IDs)
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	compOf = make([]int32, n)
	members := make([]int32, 0, n)
	for k := range index {
		index[k] = unvisited
	}
	var stack []int32
	var next int32

	type frame struct {
		row int32
		ei  int32 // next out-edge to explore
	}
	var callStack []frame
	visit := func(k int32) {
		index[k], low[k] = next, next
		next++
		stack = append(stack, k)
		onStack[k] = true
		callStack = append(callStack, frame{row: k, ei: c.Off[k]})
	}
	for root := range int32(n) {
		if index[root] != unvisited {
			continue
		}
		visit(root)
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			u, advanced := f.row, false
			for f.ei < c.Off[u+1] {
				w := c.To[f.ei]
				f.ei++
				if index[w] == unvisited {
					visit(w)
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[u] {
					low[u] = index[w]
				}
			}
			if advanced {
				continue
			}
			// u is finished.
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].row
				low[parent] = min(low[parent], low[u])
			}
			if low[u] == index[u] {
				ci, start := int32(len(comps)), len(members)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					compOf[w] = ci
					members = append(members, w)
					if w == u {
						break
					}
				}
				comps = append(comps, members[start:len(members):len(members)])
			}
		}
	}
	return comps, compOf
}

// Condensation returns the DAG of strongly connected components: a new
// graph with one node per component (IDs are component indices into the
// returned components slice) and an edge c1→c2 whenever some original
// edge crosses from component c1 to component c2. Edge weights are the
// minimum crossing weight.
func (g *Graph) Condensation() (dag *Graph, comps [][]NodeID, compOf map[NodeID]int) {
	comps = g.StronglyConnectedComponents()
	compOf = make(map[NodeID]int, g.NumNodes())
	for ci, comp := range comps {
		for _, id := range comp {
			compOf[id] = ci
		}
	}
	dag = New()
	for ci := range comps {
		dag.AddNode(NodeID(ci), Coord{})
	}
	best := make(map[[2]int]float64)
	for _, e := range g.Edges() {
		cf, ct := compOf[e.From], compOf[e.To]
		if cf == ct {
			continue
		}
		key := [2]int{cf, ct}
		if w, ok := best[key]; !ok || e.Weight < w {
			best[key] = e.Weight
		}
	}
	for key, w := range best {
		dag.AddEdge(Edge{From: NodeID(key[0]), To: NodeID(key[1]), Weight: w})
	}
	return dag, comps, compOf
}
