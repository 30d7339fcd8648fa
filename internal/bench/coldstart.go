package bench

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/pkg/tcq"
)

// ColdstartResult compares the two boot paths at road-network scale:
// text (parse the graph and fragmentation, run the preprocessing
// searches) versus snapshot (mmap a TCSF image). The JSON field names
// are pinned by the CI coldstart gate.
type ColdstartResult struct {
	// Nodes and DirectedEdges describe the generated road network.
	Nodes         int `json:"nodes"`
	DirectedEdges int `json:"directed_edges"`
	// Fragments is the fragmentation size (one per city).
	Fragments int `json:"fragments"`
	// SnapshotBytes is the TCSF image size.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// ParseSeconds is the text path's parse time (graph +
	// fragmentation files), BuildSeconds its preprocessing time.
	ParseSeconds float64 `json:"parse_seconds"`
	BuildSeconds float64 `json:"build_seconds"`
	// SaveSeconds is the one-time snapshot write.
	SaveSeconds float64 `json:"save_seconds"`
	// LoadSeconds is the snapshot path's full cold start.
	LoadSeconds float64 `json:"load_seconds"`
	// Speedup is (parse+build)/load — the claim the CI gate pins.
	Speedup float64 `json:"speedup"`
	// VerifiedQueries counts the random pairs whose connectivity and
	// cost matched exactly between the built and the loaded store.
	VerifiedQueries int `json:"verified_queries"`
}

// Format renders the comparison.
func (r *ColdstartResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cold start: text parse+build vs TCSF snapshot load\n")
	fmt.Fprintf(&sb, "road network: %d nodes, %d directed edges, %d fragments\n",
		r.Nodes, r.DirectedEdges, r.Fragments)
	fmt.Fprintf(&sb, "  text path:     parse %.3fs + build %.3fs = %.3fs\n",
		r.ParseSeconds, r.BuildSeconds, r.ParseSeconds+r.BuildSeconds)
	fmt.Fprintf(&sb, "  snapshot path: load %.3fs (image %.1f MiB, saved in %.3fs)\n",
		r.LoadSeconds, float64(r.SnapshotBytes)/(1<<20), r.SaveSeconds)
	fmt.Fprintf(&sb, "  speedup: %.1fx, %d query answers verified identical\n",
		r.Speedup, r.VerifiedQueries)
	return sb.String()
}

// Coldstart measures both boot paths on a generated road network of at
// least targetEdges directed edges, then verifies verifyQueries random
// connectivity+cost answers agree exactly between the freshly built
// and the snapshot-loaded store. Everything happens in a temp dir so
// the disk round trip is real (write text files, read them back).
func Coldstart(targetEdges, verifyQueries int, seed int64) (*ColdstartResult, error) {
	if targetEdges <= 0 {
		return nil, fmt.Errorf("coldstart: targetEdges must be positive, got %d", targetEdges)
	}
	dir, err := os.MkdirTemp("", "coldstart-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := gen.RoadConfigForEdges(targetEdges, seed)
	g, sets, err := gen.RoadNetwork(cfg)
	if err != nil {
		return nil, err
	}
	fr, err := fragment.New(g, sets)
	if err != nil {
		return nil, err
	}
	graphPath := filepath.Join(dir, "road.graph")
	fragPath := filepath.Join(dir, "road.frags")
	if err := writeText(graphPath, g.Write); err != nil {
		return nil, err
	}
	if err := writeText(fragPath, fr.Write); err != nil {
		return nil, err
	}
	res := &ColdstartResult{
		Nodes:         g.NumNodes(),
		DirectedEdges: g.NumEdges(),
		Fragments:     fr.NumFragments(),
	}

	// Text path: parse both files, then preprocess.
	start := time.Now()
	g2, err := readGraphFile(graphPath)
	if err != nil {
		return nil, err
	}
	fr2, err := readFragFile(g2, fragPath)
	if err != nil {
		return nil, err
	}
	res.ParseSeconds = time.Since(start).Seconds()
	start = time.Now()
	built, err := tcq.BuildStore(fr2, tcq.BuildOptions{})
	if err != nil {
		return nil, err
	}
	res.BuildSeconds = time.Since(start).Seconds()
	ds, err := tcq.OpenDataset(built)
	if err != nil {
		return nil, err
	}

	// Snapshot path: save once, cold-load.
	tcsPath := filepath.Join(dir, "road.tcs")
	start = time.Now()
	n, err := tcq.SaveSnapshot(tcsPath, ds.Snapshot())
	if err != nil {
		return nil, err
	}
	res.SaveSeconds = time.Since(start).Seconds()
	res.SnapshotBytes = n
	start = time.Now()
	cold, err := tcq.LoadSnapshot(tcsPath)
	if err != nil {
		return nil, err
	}
	res.LoadSeconds = time.Since(start).Seconds()
	if res.LoadSeconds > 0 {
		res.Speedup = (res.ParseSeconds + res.BuildSeconds) / res.LoadSeconds
	}

	// Oracle: random pairs must answer identically on both stores.
	rng := rand.New(rand.NewSource(seed))
	builtSt, coldSt := ds.Snapshot().Store(), cold.Snapshot().Store()
	for i := 0; i < verifyQueries; i++ {
		src := graph.NodeID(rng.Intn(res.Nodes))
		tgt := graph.NodeID(rng.Intn(res.Nodes))
		want, err := runPair(builtSt, src, tgt, dsa.EngineDijkstra)
		if err != nil {
			return nil, err
		}
		got, err := runPair(coldSt, src, tgt, dsa.EngineDijkstra)
		if err != nil {
			return nil, err
		}
		if want.Reachable != got.Reachable || want.Cost != got.Cost {
			return nil, fmt.Errorf("coldstart: answer drift on %d→%d: built (%v, %g), loaded (%v, %g)",
				src, tgt, want.Reachable, want.Cost, got.Reachable, got.Cost)
		}
		res.VerifiedQueries++
	}
	return res, nil
}

// writeText streams one text artifact to disk through a buffered
// writer, fsync included — the parse timing must read from a real
// file.
func writeText(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readGraphFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(bufio.NewReaderSize(f, 1<<20))
}

func readFragFile(g *graph.Graph, path string) (*fragment.Fragmentation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fragment.Read(g, bufio.NewReaderSize(f, 1<<20))
}
