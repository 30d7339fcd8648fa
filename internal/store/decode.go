package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/graph"
)

// ErrBadSnapshot reports a TCSF image the decoder refuses: wrong
// magic, failed checksum, or a structurally inconsistent body. Wrapped
// by every decode failure so callers branch with errors.Is.
var ErrBadSnapshot = errors.New("store: bad snapshot")

// dec walks the image with a sticky error: the first failure poisons
// every later read, so section parsers read straight-line and check
// d.err at their boundaries. Every count is validated against the
// bytes actually remaining BEFORE it sizes an allocation — the cap
// that keeps a fuzzer-built header from requesting gigabytes.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d)", ErrBadSnapshot, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// count reads a u64 element count and bounds it by the bytes left at
// elemSize bytes per element. Anything larger is unsatisfiable and
// refused before any allocation happens.
func (d *dec) count(elemSize int) int {
	v := d.u64()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.remaining()/elemSize) {
		d.fail("count %d exceeds remaining %d bytes at %d bytes/element", v, d.remaining(), elemSize)
		return 0
	}
	return int(v)
}

// take consumes n bytes and returns them.
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.remaining() < n {
		d.fail("truncated section (%d bytes wanted)", n)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// pad8 consumes the zero padding up to the next 8-byte boundary.
func (d *dec) pad8() {
	if rem := d.off % 8; rem != 0 {
		d.take(8 - rem)
	}
}

// column consumes one stored column of n elements of width bytes (4
// or 8), plus the pad8 that follows a 4-byte column, and returns its
// bytes. Callers decode each element (i32At, i64At, f64At) straight
// into the structure it feeds, so nothing of the image outlives Decode.
func (d *dec) column(n, width int) []byte {
	p := d.take(n * width)
	if width == 4 {
		d.pad8()
	}
	return p
}

func i32At(p []byte, k int) int32   { return int32(binary.LittleEndian.Uint32(p[4*k:])) }
func i64At(p []byte, k int) int64   { return int64(binary.LittleEndian.Uint64(p[8*k:])) }
func f64At(p []byte, k int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(p[8*k:])) }

// intFrom narrows a stored u64 to a non-negative int, refusing values
// a corrupt header could use to overflow downstream arithmetic.
func (d *dec) intFrom(v uint64, what string) int {
	if v > math.MaxInt32 {
		d.fail("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// Decode reconstructs a deployed store from a TCSF image. The image is
// checksum-verified first; afterwards the structure is still treated
// as untrusted (every count capped, every table checked against the
// fragmentation), so a corrupt-but-checksummed file fails with
// ErrBadSnapshot instead of panicking or over-allocating. The returned
// store keeps no reference to data.
func Decode(data []byte) (*dsa.Store, error) {
	if len(data) < headerSize+len(fileTrailer) {
		return nil, fmt.Errorf("%w: file too small (%d bytes)", ErrBadSnapshot, len(data))
	}
	if string(data[:8]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, data[:8])
	}
	if string(data[len(data)-len(fileTrailer):]) != fileTrailer {
		return nil, fmt.Errorf("%w: missing trailer (truncated file)", ErrBadSnapshot)
	}
	if want, got := binary.LittleEndian.Uint32(data[8:12]), crc32.ChecksumIEEE(data[16:]); want != got {
		return nil, fmt.Errorf("%w: checksum mismatch (header %08x, computed %08x)", ErrBadSnapshot, want, got)
	}

	d := &dec{b: data[:len(data)-len(fileTrailer)], off: 16}
	epoch := d.u64()
	problem := dsa.Problem(d.intFrom(d.u64(), "problem"))
	maxChains := d.intFrom(d.u64(), "maxChains")
	var prep dsa.PreprocessStats
	prep.DijkstraRuns = d.intFrom(d.u64(), "dijkstraRuns")
	prep.PairsStored = d.intFrom(d.u64(), "pairsStored")
	prep.DisconnectionSets = d.intFrom(d.u64(), "disconnectionSets")
	nodeCount := d.count(24)
	fragCount := d.count(8)
	if d.err != nil {
		return nil, d.err
	}

	// Node table. The encoder writes base.Nodes(), which is sorted and
	// duplicate-free; enforcing the order here both hardens the format
	// and guarantees the uniqueness the bulk node install below relies
	// on. The base graph itself is built after the edge sections, once
	// each node's complete adjacency run is known.
	idCol, xCol, yCol := d.column(nodeCount, 8), d.column(nodeCount, 8), d.column(nodeCount, 8)
	if d.err != nil {
		return nil, d.err
	}
	ids := make([]graph.NodeID, nodeCount)
	for i := range ids {
		ids[i] = graph.NodeID(i64At(idCol, i))
		if i > 0 && ids[i] <= ids[i-1] {
			d.fail("node table not strictly increasing at entry %d", i)
			return nil, d.err
		}
	}

	// Per-fragment edge columns, decoded into edge slices. Endpoints are
	// node-table indices: the bounds check below is the complete
	// endpoint validation — an in-range index is a declared node by
	// construction, so the adjacency fill needs no node-map lookups. The
	// same pass accumulates per-node degrees for the bucketed fill below.
	edgeSets := make([][]graph.Edge, fragCount)
	froms := make([][]byte, fragCount)
	tos := make([][]byte, fragCount)
	outDeg := make([]int32, nodeCount+1)
	inDeg := make([]int32, nodeCount+1)
	totalEdges := 0
	for fi := range edgeSets {
		n := d.count(16)
		from, to, w := d.column(n, 4), d.column(n, 4), d.column(n, 8)
		if d.err != nil {
			return nil, d.err
		}
		es := make([]graph.Edge, n)
		for k := range es {
			f, t := i32At(from, k), i32At(to, k)
			if f < 0 || int(f) >= nodeCount || t < 0 || int(t) >= nodeCount {
				d.fail("fragment %d edge %d: endpoint index out of range", fi, k)
				return nil, d.err
			}
			es[k] = graph.Edge{From: ids[f], To: ids[t], Weight: f64At(w, k)}
			outDeg[f+1]++
			inDeg[t+1]++
		}
		edgeSets[fi], froms[fi], tos[fi] = es, from, to
		totalEdges += n
	}

	// Bucket the edge volume into one contiguous adjacency run per node
	// and build the base graph with one bulk install per node: a fixed
	// handful of map writes each instead of two map-append operations
	// per edge. The site builder shares these lists for
	// fragment-private nodes, so the base adjacency must be complete
	// before dsa.Restore runs.
	for i := 0; i < nodeCount; i++ {
		outDeg[i+1] += outDeg[i]
		inDeg[i+1] += inDeg[i]
	}
	outBuf := make([]graph.Edge, totalEdges)
	inBuf := make([]graph.Edge, totalEdges)
	outCur := append([]int32(nil), outDeg[:nodeCount]...)
	inCur := append([]int32(nil), inDeg[:nodeCount]...)
	for fi, es := range edgeSets {
		from, to := froms[fi], tos[fi]
		for k := range es {
			f, t := i32At(from, k), i32At(to, k)
			outBuf[outCur[f]] = es[k]
			outCur[f]++
			inBuf[inCur[t]] = es[k]
			inCur[t]++
		}
	}
	base := graph.NewWithCapacity(nodeCount)
	for i := 0; i < nodeCount; i++ {
		ob, oe := outDeg[i], outDeg[i+1]
		ib, ie := inDeg[i], inDeg[i+1]
		base.InstallNode(ids[i], graph.Coord{X: f64At(xCol, i), Y: f64At(yCol, i)},
			outBuf[ob:oe:oe], inBuf[ib:ie:ie])
	}

	// Complementary tables.
	pairCount := d.count(40)
	comp := make(map[fragment.Pair]*dsa.CompInfo, pairCount)
	compNodes := make(map[fragment.Pair][]graph.NodeID, pairCount)
	for pi := 0; pi < pairCount; pi++ {
		i := d.intFrom(d.u64(), "pair fragment")
		j := d.intFrom(d.u64(), "pair fragment")
		nodeCol := d.column(d.count(8), 8)
		nCost := d.count(24)
		ca, cb, cw := d.column(nCost, 8), d.column(nCost, 8), d.column(nCost, 8)
		if d.err != nil {
			return nil, d.err
		}
		nodes := make([]graph.NodeID, len(nodeCol)/8)
		for k := range nodes {
			nodes[k] = graph.NodeID(i64At(nodeCol, k))
		}
		ci := &dsa.CompInfo{Pair: fragment.Pair{I: i, J: j}, Cost: make([]graph.Edge, nCost)}
		for k := range ci.Cost {
			c := graph.Edge{From: graph.NodeID(i64At(ca, k)), To: graph.NodeID(i64At(cb, k)), Weight: f64At(cw, k)}
			if k > 0 && (ci.Cost[k-1].From > c.From || ci.Cost[k-1].From == c.From && ci.Cost[k-1].To >= c.To) {
				d.fail("complementary table %d-%d is not sorted by (from, to) at row %d", i, j, k)
				return nil, d.err
			}
			ci.Cost[k] = c
		}
		comp[ci.Pair] = ci
		compNodes[ci.Pair] = nodes
	}
	if d.err == nil && d.remaining() != 0 {
		d.fail("%d trailing bytes after last section", d.remaining())
	}
	if d.err != nil {
		return nil, d.err
	}

	fr, err := fragment.Restore(base, edgeSets)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	// A table's node list is not kept — the disconnection set is the
	// fragmentation's — so it must BE that set, under its normalised
	// pair, and every set must have its table.
	dss := fr.DisconnectionSets()
	if len(compNodes) != len(dss) {
		return nil, fmt.Errorf("%w: %d complementary tables for %d disconnection sets", ErrBadSnapshot, len(compNodes), len(dss))
	}
	for p, stored := range compNodes {
		ds, ok := dss[p]
		if !ok || !slices.Equal(stored, ds) {
			return nil, fmt.Errorf("%w: complementary table %d-%d does not list the fragmentation's disconnection set", ErrBadSnapshot, p.I, p.J)
		}
		for _, e := range comp[p].Cost {
			_, from := slices.BinarySearch(ds, e.From)
			_, to := slices.BinarySearch(ds, e.To)
			if !from || !to {
				return nil, fmt.Errorf("%w: complementary table %d-%d prices %d→%d, not a pair of its disconnection set", ErrBadSnapshot, p.I, p.J, e.From, e.To)
			}
		}
	}

	st, err := dsa.Restore(fr, comp, dsa.Options{MaxChains: maxChains, Problem: problem}, epoch, prep)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return st, nil
}

// Load reads the TCSF image at path and reconstructs the store.
func Load(path string) (*dsa.Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return st, nil
}
