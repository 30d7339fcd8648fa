// Package store is the persistence subsystem of the deployment: a
// versioned, checksummed binary snapshot format ("TCSF") holding what
// a built dsa.Store's sites store — the fragments and the complementary
// information (§2.1) — a loader that reconstructs the store from it
// without re-running the preprocessing searches, and an append-only
// apply journal with periodic TCSF checkpoints so a restarted node
// recovers its exact epoch. A restored site builds its kernels on first
// use, as a live one does.
//
// The package sits beside internal/dsa, below the tcq facade: it
// imports the model layers (graph, fragment, relation-free) and dsa,
// and nothing from the serving stack. Serving code reaches it through
// pkg/tcq's persistence API.
//
// See docs/tcsf.md for the byte-level format specification.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/graph"
)

// Format framing. All integers are little-endian; 4-byte arrays are
// zero-padded up to the next multiple of 8, so every array of 8-byte
// elements starts 8-byte aligned.
const (
	// fileMagic opens every TCSF file; the version is part of the
	// magic, so a reader for one version refuses others outright.
	fileMagic = "TCSFv02\n"
	// fileTrailer closes the file; a truncated file fails the checksum
	// anyway, but the trailer makes the refusal cheap and explicit.
	fileTrailer = "TCSFEND\n"
	// headerSize is the fixed prelude: magic, crc32+flags, epoch,
	// problem, maxChains, the three preprocessing counters, node and
	// fragment counts.
	headerSize = 80
)

// enc accumulates the little-endian encoding in memory. Snapshot
// sizes are tens of bytes per edge, so building the image in RAM and
// writing it once keeps the atomic-write path (temp file + rename)
// trivial.
type enc struct{ b []byte }

func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) raw(p []byte) { e.b = append(e.b, p...) }

// pad8 zero-fills to the next 8-byte boundary.
func (e *enc) pad8() {
	for len(e.b)%8 != 0 {
		e.b = append(e.b, 0)
	}
}

func (e *enc) i32s(vs []int32) {
	for _, v := range vs {
		e.u32(uint32(v))
	}
	e.pad8()
}

func (e *enc) nodeIDs(vs []graph.NodeID) {
	for _, v := range vs {
		e.u64(uint64(v))
	}
}

// Encode serializes a built store to the TCSF image. The snapshot
// captures everything Build computed — fragmentation, complementary
// tables, preprocessing report, epoch — and nothing a site derives from
// them: its kernels are built again after a load, on first use.
func Encode(st *dsa.Store) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("store: encode: nil store")
	}
	fr := st.Fragmentation()
	base := fr.Base()
	nodes := base.Nodes()
	frags := fr.Fragments()

	e := &enc{b: make([]byte, 0, encodeSizeHint(base))}
	e.raw([]byte(fileMagic))
	e.u32(0) // crc32, backpatched below
	e.u32(0) // flags, reserved
	e.u64(st.Epoch())
	e.u64(uint64(st.Problem()))
	e.u64(uint64(st.MaxChains()))
	prep := st.Preprocessing()
	e.u64(uint64(prep.DijkstraRuns))
	e.u64(uint64(prep.PairsStored))
	e.u64(uint64(prep.DisconnectionSets))
	e.u64(uint64(len(nodes)))
	e.u64(uint64(len(frags)))

	// Node table: ids, then both coordinate columns.
	e.nodeIDs(nodes)
	for _, id := range nodes {
		e.f64(base.Coord(id).X)
	}
	for _, id := range nodes {
		e.f64(base.Coord(id).Y)
	}

	// Per-fragment edge columns. The fragments partition the base
	// graph's edges, so this section doubles as the base edge list.
	// Endpoints are stored as node-table indices, not IDs: half the
	// bytes, and the decoder validates an endpoint with a bounds check
	// instead of a node-map lookup per edge — by construction an
	// in-range index IS a declared node.
	idx := make(map[graph.NodeID]int32, len(nodes))
	for i, id := range nodes {
		idx[id] = int32(i)
	}
	for _, f := range frags {
		e.u64(uint64(len(f.Edges)))
		col := make([]int32, len(f.Edges))
		for k, ed := range f.Edges {
			v, ok := idx[ed.From]
			if !ok {
				return nil, fmt.Errorf("store: encode: fragment %d edge endpoint %d is not a node", f.ID, ed.From)
			}
			col[k] = v
		}
		e.i32s(col)
		for k, ed := range f.Edges {
			v, ok := idx[ed.To]
			if !ok {
				return nil, fmt.Errorf("store: encode: fragment %d edge endpoint %d is not a node", f.ID, ed.To)
			}
			col[k] = v
		}
		e.i32s(col)
		for _, ed := range f.Edges {
			e.f64(ed.Weight)
		}
	}

	// Complementary tables, in deterministic pair order.
	comp := st.CompTables()
	pairs := make([]fragment.Pair, 0, len(comp))
	for p := range comp {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].I != pairs[j].I {
			return pairs[i].I < pairs[j].I
		}
		return pairs[i].J < pairs[j].J
	})
	e.u64(uint64(len(pairs)))
	for _, p := range pairs {
		ci := comp[p]
		e.u64(uint64(p.I))
		e.u64(uint64(p.J))
		nodes := fr.DisconnectionSet(p.I, p.J)
		e.u64(uint64(len(nodes)))
		e.nodeIDs(nodes)
		costs := ci.Cost // sorted by (a, b)
		e.u64(uint64(len(costs)))
		for _, c := range costs {
			e.u64(uint64(c.From))
		}
		for _, c := range costs {
			e.u64(uint64(c.To))
		}
		for _, c := range costs {
			e.f64(c.Weight)
		}
	}

	e.raw([]byte(fileTrailer))

	// Checksum everything after the magic+crc+flags prelude.
	binary.LittleEndian.PutUint32(e.b[8:12], crc32.ChecksumIEEE(e.b[16:]))
	return e.b, nil
}

// encodeSizeHint estimates the image size so the encoder allocates
// once: header + 24 bytes per node, 16 per edge (two index columns and
// the weight), plus slack for comp tables and section counts.
func encodeSizeHint(base *graph.Graph) int {
	return headerSize + 24*base.NumNodes() + 16*base.NumEdges() + 1<<16
}

// SaveFile encodes st and writes it atomically: a temp file in the
// target directory, fsync, rename over the final name, and a
// best-effort directory sync. Readers of path therefore see either
// the old image or the complete new one, never a torn write.
func SaveFile(path string, st *dsa.Store) (int64, error) {
	data, err := Encode(st)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return 0, fmt.Errorf("store: save: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return 0, fmt.Errorf("store: save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return 0, fmt.Errorf("store: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return 0, fmt.Errorf("store: save: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return 0, fmt.Errorf("store: save: %w", err)
	}
	syncDir(dir)
	return int64(len(data)), nil
}

// syncDir fsyncs a directory so a rename is durable, best-effort:
// some platforms refuse to sync directory handles, and losing the
// rename on power failure just reverts to the previous image.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
