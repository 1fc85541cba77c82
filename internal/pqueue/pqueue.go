// Package pqueue provides an indexed min-heap priority queue specialized for
// graph algorithms: items are dense non-negative integer IDs (vertex IDs) and
// priorities are float64 keys (tentative distances).
//
// The queue supports DecreaseKey in O(log n), which makes it suitable as the
// workhorse of Dijkstra's algorithm, and it is allocation-free after
// construction when reused via Reset.
package pqueue

import "fmt"

// notInHeap marks an item that is currently not resident in the heap.
const notInHeap = -1

// panicf raises a formatted panic. Keeping the fmt call out of line keeps
// the heap operations that can panic (Push, Key, DecreaseKey) within the
// compiler's inlining budget — they sit in the Dijkstra inner loop, and
// the panic branches are never taken on valid input.
//
//go:noinline
//rbpc:hotpath
func panicf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...)) // cold panic path, unreachable on valid input
}

// IndexedMinHeap is a binary min-heap over the item IDs 0..n-1 keyed by
// float64 priorities. The zero value is not usable; construct with New.
//
// IndexedMinHeap is not safe for concurrent use.
type IndexedMinHeap struct {
	// heap[i] is the item stored at heap position i.
	heap []int32
	// pos[item] is the heap position of item, or notInHeap.
	pos []int32
	// key[item] is the priority of item; meaningful only while the item is
	// in the heap.
	key []float64
}

// New returns an empty heap able to hold items with IDs in [0, n).
func New(n int) *IndexedMinHeap {
	h := &IndexedMinHeap{
		heap: make([]int32, 0, n),
		pos:  make([]int32, n),
		key:  make([]float64, n),
	}
	for i := range h.pos {
		h.pos[i] = notInHeap
	}
	return h
}

// Len reports the number of items currently in the heap.
//
//rbpc:hotpath
func (h *IndexedMinHeap) Len() int { return len(h.heap) }

// Cap reports the maximum item ID the heap can hold plus one.
//
//rbpc:hotpath
func (h *IndexedMinHeap) Cap() int { return len(h.pos) }

// Contains reports whether item is currently in the heap.
//
//rbpc:hotpath
func (h *IndexedMinHeap) Contains(item int) bool {
	return item >= 0 && item < len(h.pos) && h.pos[item] != notInHeap
}

// Key returns the current priority of item. It panics if the item is not in
// the heap.
//
//rbpc:hotpath
func (h *IndexedMinHeap) Key(item int) float64 {
	if !h.Contains(item) {
		panicf("pqueue: Key of item %d not in heap", item)
	}
	return h.key[item]
}

// Push inserts item with the given priority. It panics if the item is already
// in the heap or out of range.
//
//rbpc:hotpath
func (h *IndexedMinHeap) Push(item int, priority float64) {
	if item < 0 || item >= len(h.pos) {
		panicf("pqueue: Push item %d out of range [0,%d)", item, len(h.pos))
	}
	if h.pos[item] != notInHeap {
		panicf("pqueue: Push of item %d already in heap", item)
	}
	h.key[item] = priority
	h.pos[item] = int32(len(h.heap))
	h.heap = append(h.heap, int32(item)) // backing array presized to capacity n in New
	h.siftUp(len(h.heap) - 1)
}

// Pop removes and returns the item with the minimum priority and that
// priority. It panics on an empty heap.
//
//rbpc:hotpath
func (h *IndexedMinHeap) Pop() (item int, priority float64) {
	if len(h.heap) == 0 {
		panic("pqueue: Pop from empty heap")
	}
	top := h.heap[0]
	pri := h.key[top]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[top] = notInHeap
	if last > 0 {
		h.siftDown(0)
	}
	return int(top), pri
}

// Peek returns the minimum item and its priority without removing it. It
// panics on an empty heap.
//
//rbpc:hotpath
func (h *IndexedMinHeap) Peek() (item int, priority float64) {
	if len(h.heap) == 0 {
		panic("pqueue: Peek of empty heap")
	}
	return int(h.heap[0]), h.key[h.heap[0]]
}

// DecreaseKey lowers the priority of an item already in the heap. It panics
// if the item is absent or if the new priority is greater than the current
// one.
//
//rbpc:hotpath
func (h *IndexedMinHeap) DecreaseKey(item int, priority float64) {
	if !h.Contains(item) {
		panicf("pqueue: DecreaseKey of item %d not in heap", item)
	}
	if priority > h.key[item] {
		panicf("pqueue: DecreaseKey of item %d from %v to larger %v", item, h.key[item], priority)
	}
	h.key[item] = priority
	h.siftUp(int(h.pos[item]))
}

// PushOrDecrease inserts the item if absent, lowers its key if the new
// priority improves on the current one, and otherwise does nothing. It
// reports whether the heap changed.
//
//rbpc:hotpath
func (h *IndexedMinHeap) PushOrDecrease(item int, priority float64) bool {
	if !h.Contains(item) {
		h.Push(item, priority)
		return true
	}
	if priority < h.key[item] {
		h.DecreaseKey(item, priority)
		return true
	}
	return false
}

// Reset empties the heap, retaining capacity, so it can be reused without
// reallocating.
//
//rbpc:hotpath
func (h *IndexedMinHeap) Reset() {
	for _, it := range h.heap {
		h.pos[it] = notInHeap
	}
	h.heap = h.heap[:0]
}

//rbpc:hotpath
func (h *IndexedMinHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

//rbpc:hotpath
func (h *IndexedMinHeap) less(i, j int) bool {
	ki, kj := h.key[h.heap[i]], h.key[h.heap[j]]
	if ki != kj {
		return ki < kj
	}
	// Tie-break on item ID for determinism across runs.
	return h.heap[i] < h.heap[j]
}

//rbpc:hotpath
func (h *IndexedMinHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

//rbpc:hotpath
func (h *IndexedMinHeap) siftDown(i int) {
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
