// Package pqueue provides the ordered containers Koios relies on: generic
// binary heaps, bounded top-k lists with fast access to their threshold
// element, and the score-ordered candidate buckets used by the iUB filter.
//
// The containers are deliberately allocation-light: Koios updates them once
// per token-stream tuple, which on large repositories means millions of
// operations per query.
package pqueue

// Heap is a generic binary heap. The less function defines the heap order:
// the element x for which less(x, y) holds for every other element y is at
// the top. Heap is not safe for concurrent use.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// NewHeapFrom heapifies items in place and returns a heap that owns the
// slice. It runs in O(n). The loop lives in heapify so that the constructor
// inlines and a heap that stays in its caller's frame costs no allocation.
func NewHeapFrom[T any](items []T, less func(a, b T) bool) *Heap[T] {
	h := &Heap[T]{items: items, less: less}
	h.heapify()
	return h
}

func (h *Heap[T]) heapify() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Len reports the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds x to the heap.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Peek returns the top element without removing it. It panics on an empty
// heap; callers check Len first.
func (h *Heap[T]) Peek() T {
	return h.items[0]
}

// Pop removes and returns the top element. It panics on an empty heap.
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release references for GC
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// Reset empties the heap, retaining the backing storage.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

// Items exposes the raw heap slice in heap order (not sorted). It is meant
// for read-only iteration, e.g. when draining statistics.
func (h *Heap[T]) Items() []T { return h.items }

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			smallest = right
		}
		if !h.less(h.items[smallest], h.items[i]) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
