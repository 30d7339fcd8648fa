// Fixture: the heap import and sort.Slice, analyzed as
// repro/internal/graph.
package graph

import (
	"container/heap" // want "import of container/heap"
	"slices"
	"sort"
)

type items []int

func (h items) Len() int           { return len(h) }
func (h items) Less(i, j int) bool { return h[i] < h[j] }
func (h items) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *items) Push(x any)        { *h = append(*h, x.(int)) }
func (h *items) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

func order(ids []int) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) // want "sort.Slice in repro/internal/graph"
	sort.SliceStable(ids, func(i, j int) bool { return ids[i] < ids[j] })
	slices.Sort(ids)
	h := items(ids)
	heap.Init(&h)
}
