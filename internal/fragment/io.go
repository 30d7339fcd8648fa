package fragment

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// The text format of a fragmentation assigns each edge to a fragment:
//
//	# comment
//	fragment <idx> <from> <to> <weight>
//
// The cmd/ tools pass fragmentations between tcfrag and tcquery in this
// format; the base graph travels separately in the graph text format.

// Write serialises the fragmentation's edge assignment.
func (fr *Fragmentation) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range fr.Fragments() {
		for _, e := range f.Edges {
			if _, err := fmt.Fprintf(bw, "fragment %d %d %d %g\n", f.ID, e.From, e.To, e.Weight); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read parses a fragmentation over the given base graph from the text
// format produced by Write; the usual partition validation applies.
func Read(g *graph.Graph, r io.Reader) (*Fragmentation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sets := make(map[int][]graph.Edge)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] != "fragment" || len(fields) != 5 {
			return nil, fmt.Errorf("fragment: line %d: want %q, got %q", lineNo, "fragment <idx> <from> <to> <weight>", line)
		}
		idx, err := strconv.Atoi(fields[1])
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("fragment: line %d: bad fragment index %q", lineNo, fields[1])
		}
		from, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("fragment: line %d: bad from %q", lineNo, fields[2])
		}
		to, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("fragment: line %d: bad to %q", lineNo, fields[3])
		}
		wgt, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, fmt.Errorf("fragment: line %d: bad weight %q", lineNo, fields[4])
		}
		sets[idx] = append(sets[idx], graph.Edge{From: graph.NodeID(from), To: graph.NodeID(to), Weight: wgt})
	}
	if err := sc.Err(); err != nil {
		// Truncated streams and over-long lines surface here; the line
		// counter points at where the scan stopped.
		return nil, fmt.Errorf("fragment: line %d: read: %v", lineNo+1, err)
	}
	// n distinct indices are 0..n-1 unless one below n has no edges: the
	// lowest such is the error, so no index sizes anything.
	ordered := make([][]graph.Edge, 0, len(sets))
	for i := range len(sets) {
		if len(sets[i]) == 0 {
			return nil, fmt.Errorf("fragment: fragment %d has no edges", i)
		}
		ordered = append(ordered, sets[i])
	}
	return New(g, ordered)
}
