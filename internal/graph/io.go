package graph

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// The text format understood by Write and Read is a line-oriented edge
// list with optional node-coordinate lines, friendly to shell tooling:
//
//	# comment
//	node <id> <x> <y>
//	edge <from> <to> <weight>
//
// Lines may omit the weight (default 1). The cmd/ tools exchange graphs
// in this format.

// Write serialises g to w in the text format. Nodes are written first so
// that coordinates survive a round trip even for isolated nodes.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, id := range g.Nodes() {
		c := g.Coord(id)
		if _, err := fmt.Fprintf(bw, "node %d %g %g\n", id, c.X, c.Y); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "edge %d %d %g\n", e.From, e.To, e.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a graph in the text format produced by Write.
func Read(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: node wants 3 args, got %d", lineNo, len(fields)-1)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node id %q: %v", lineNo, fields[1], err)
			}
			x, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad x %q: %v", lineNo, fields[2], err)
			}
			y, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad y %q: %v", lineNo, fields[3], err)
			}
			g.AddNode(NodeID(id), Coord{X: x, Y: y})
		case "edge":
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: edge wants 2 or 3 args, got %d", lineNo, len(fields)-1)
			}
			from, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad from %q: %v", lineNo, fields[1], err)
			}
			to, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad to %q: %v", lineNo, fields[2], err)
			}
			w := 1.0
			if len(fields) == 4 {
				w, err = strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[3], err)
				}
			}
			g.AddEdge(Edge{From: NodeID(from), To: NodeID(to), Weight: w})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		// Truncated streams and over-long lines surface here; the line
		// counter points at where the scan stopped.
		return nil, fmt.Errorf("graph: line %d: read: %v", lineNo+1, err)
	}
	return g, nil
}

// SortNodeIDs sorts a slice of node IDs in place and returns it, for
// deterministic printing by callers.
func SortNodeIDs(ids []NodeID) []NodeID {
	slices.Sort(ids)
	return ids
}
