package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"unsafe"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/graph"
	"repro/internal/tc"
)

// ErrBadSnapshot reports a TCSF image the decoder refuses: wrong
// magic, failed checksum, or a structurally inconsistent body. Wrapped
// by every decode failure so callers branch with errors.Is.
var ErrBadSnapshot = errors.New("store: bad snapshot")

// nativeLE reports whether this machine is little-endian — the
// precondition for aliasing the file's arrays in place. On big-endian
// targets every array helper falls back to a byte-swapping copy, so
// the format stays portable while the common case stays zero-copy.
var nativeLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

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

// i64s returns n int64s, aliased from the image when the platform
// allows (little-endian, 8-aligned — mmap bases are page-aligned and
// the format keeps 8-byte arrays 8-aligned, so this is the norm).
func (d *dec) i64s(n int) []int64 {
	p := d.take(n * 8)
	if d.err != nil || n == 0 {
		return nil
	}
	if nativeLE && uintptr(unsafe.Pointer(&p[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[i*8:]))
	}
	return out
}

func (d *dec) f64s(n int) []float64 {
	p := d.take(n * 8)
	if d.err != nil || n == 0 {
		return nil
	}
	if nativeLE && uintptr(unsafe.Pointer(&p[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
	return out
}

func (d *dec) i32s(n int) []int32 {
	p := d.take(n * 4)
	d.pad8()
	if d.err != nil || n == 0 {
		return nil
	}
	if nativeLE && uintptr(unsafe.Pointer(&p[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[i*4:]))
	}
	return out
}

// intFrom narrows a stored u64 to a non-negative int, refusing values
// a corrupt header could use to overflow downstream arithmetic.
func (d *dec) intFrom(v uint64, what string) int {
	if v > math.MaxInt32 {
		d.fail("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// denseRaw holds one site's CSR arrays as read from the image, before
// kernel validation.
type denseRaw struct {
	ids      []int64
	rowStart []int32
	colIdx   []int32
	weight   []float64
}

// Decode reconstructs a deployed store from a TCSF image. The image is
// checksum-verified first; afterwards the structure is still treated
// as untrusted (every count capped, every kernel shape validated), so
// a corrupt-but-checksummed file fails with ErrBadSnapshot instead of
// panicking or over-allocating.
//
// The returned store aliases data's dense CSR arrays — callers keep
// the backing buffer (or mapping) alive for the store's lifetime and
// never mutate it.
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
	ids := d.i64s(nodeCount)
	xs := d.f64s(nodeCount)
	ys := d.f64s(nodeCount)
	if d.err != nil {
		return nil, d.err
	}
	for i := 1; i < nodeCount; i++ {
		if ids[i] <= ids[i-1] {
			d.fail("node table not strictly increasing at entry %d", i)
			return nil, d.err
		}
	}

	// Per-fragment edge columns, materialized as edge slices (the one
	// unavoidable copy: the graph layer works in Edge structs).
	// Endpoints are node-table indices: the bounds check below is the
	// complete endpoint validation — an in-range index is a declared
	// node by construction, so the adjacency fill needs no node-map
	// lookups. The same pass accumulates per-node degrees for the
	// bucketed fill below.
	edgeSets := make([][]graph.Edge, fragCount)
	froms := make([][]int32, fragCount)
	tos := make([][]int32, fragCount)
	outDeg := make([]int32, nodeCount+1)
	inDeg := make([]int32, nodeCount+1)
	totalEdges := 0
	for fi := range edgeSets {
		n := d.count(16)
		from := d.i32s(n)
		to := d.i32s(n)
		w := d.f64s(n)
		if d.err != nil {
			return nil, d.err
		}
		es := make([]graph.Edge, n)
		for k := range es {
			fi32, ti32 := from[k], to[k]
			if fi32 < 0 || int(fi32) >= nodeCount || ti32 < 0 || int(ti32) >= nodeCount {
				d.fail("fragment %d edge %d: endpoint index out of range", fi, k)
				return nil, d.err
			}
			es[k] = graph.Edge{From: graph.NodeID(ids[fi32]), To: graph.NodeID(ids[ti32]), Weight: w[k]}
			outDeg[fi32+1]++
			inDeg[ti32+1]++
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
			f, t := from[k], to[k]
			outBuf[outCur[f]] = es[k]
			outCur[f]++
			inBuf[inCur[t]] = es[k]
			inCur[t]++
		}
	}
	base := graph.NewWithCapacity(nodeCount)
	for i := 0; i < nodeCount; i++ {
		os, oe := outDeg[i], outDeg[i+1]
		is, ie := inDeg[i], inDeg[i+1]
		base.InstallNode(graph.NodeID(ids[i]), graph.Coord{X: xs[i], Y: ys[i]},
			outBuf[os:oe:oe], inBuf[is:ie:ie])
	}

	// Complementary tables.
	pairCount := d.count(40)
	comp := make(map[fragment.Pair]*dsa.CompInfo, pairCount)
	compNodes := make(map[fragment.Pair][]int64, pairCount)
	for pi := 0; pi < pairCount; pi++ {
		i := d.intFrom(d.u64(), "pair fragment")
		j := d.intFrom(d.u64(), "pair fragment")
		nNodes := d.count(8)
		nodeIDs := d.i64s(nNodes)
		nCost := d.count(24)
		ca := d.i64s(nCost)
		cb := d.i64s(nCost)
		cw := d.f64s(nCost)
		if d.err != nil {
			return nil, d.err
		}
		ci := &dsa.CompInfo{Pair: fragment.Pair{I: i, J: j}, Cost: make([]graph.Edge, nCost)}
		for k := range ci.Cost {
			ci.Cost[k] = graph.Edge{From: graph.NodeID(ca[k]), To: graph.NodeID(cb[k]), Weight: cw[k]}
			if k > 0 && (ca[k-1] > ca[k] || ca[k-1] == ca[k] && cb[k-1] >= cb[k]) {
				d.fail("complementary table %d-%d is not sorted by (from, to) at row %d", i, j, k)
				return nil, d.err
			}
		}
		comp[ci.Pair] = ci
		compNodes[ci.Pair] = nodeIDs
	}

	// Dense CSR sections, read fully before reconstruction starts.
	denseCount := d.count(8)
	if d.err == nil && denseCount != 0 && denseCount != fragCount {
		d.fail("dense section count %d does not match %d fragments", denseCount, fragCount)
	}
	raws := make([]*denseRaw, denseCount)
	for si := range raws {
		present := d.u64()
		if d.err != nil {
			return nil, d.err
		}
		if present == 0 {
			continue
		}
		if present != 1 {
			d.fail("dense presence flag %d", present)
			return nil, d.err
		}
		n := d.count(8)
		e := d.count(12)
		raw := &denseRaw{
			ids:      d.i64s(n),
			rowStart: d.i32s(n + 1),
			colIdx:   d.i32s(e),
			weight:   d.f64s(e),
		}
		if d.err != nil {
			return nil, d.err
		}
		raws[si] = raw
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		d.fail("%d trailing bytes after last section", d.remaining())
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
	sameNode := func(stored int64, id graph.NodeID) bool { return graph.NodeID(stored) == id }
	for p, stored := range compNodes {
		ds, ok := dss[p]
		if !ok || !slices.EqualFunc(stored, ds, sameNode) {
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

	st, rerr := dsa.Restore(fr, comp, dsa.Options{MaxChains: maxChains, Problem: problem}, epoch, prep)
	if rerr != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, rerr)
	}

	// Prime the dense kernels from the stored CSR arrays (validated,
	// zero-copy). A snapshot written without kernels restores with
	// lazy builds, exactly like a live deployment.
	for si, raw := range raws {
		if raw == nil {
			continue
		}
		dg, err := tc.DenseFromCSR(raw.ids, raw.rowStart, raw.colIdx, raw.weight)
		if err != nil {
			return nil, fmt.Errorf("%w: site %d kernel: %v", ErrBadSnapshot, si, err)
		}
		st.Site(si).PrimeDense(dg)
	}
	return st, nil
}

// Load reads the TCSF image at path and reconstructs the store. On
// unix the file is mmap'd and the store's dense kernels alias the
// mapping zero-copy; the mapping therefore stays alive for the life of
// the process (one snapshot per boot — there is nothing to reclaim).
// Elsewhere the file is read into memory (see mmap_other.go).
func Load(path string) (*dsa.Store, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	st, err := Decode(data)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return st, nil
}
