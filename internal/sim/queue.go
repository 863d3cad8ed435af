package sim

// This file is the scheduler's hot path: a specialized 4-ary min-heap over
// pooled event slots, ordered by (at, seq). It replaces container/heap,
// whose interface-based Push/Pop box every *Event into an `any` and whose
// Remove costs O(log n) sift work per cancellation. Here:
//
//   - Push/pop sift inline on a []*event with no interface conversions.
//   - A 4-ary layout halves the tree depth of a binary heap; the extra
//     sibling comparisons are cache-local (the four children share at most
//     two cache lines), which is the right trade for a pop-heavy queue.
//   - Fired and canceled events return to a free list and are recycled, so
//     steady-state Schedule/Step allocates nothing. A generation counter
//     on each slot makes a stale handle's Cancel a safe no-op.
//   - Cancel is O(1) lazy deletion: the slot is tombstoned (fn = nil) and
//     skipped when it surfaces at the top. When tombstones outnumber live
//     events the heap is compacted in one O(n) pass.
//   - The heap slice and the free list shrink after bursts, so a long
//     soak does not hold its peak-burst memory for the rest of the run.
//
// Determinism: pop order is exactly ascending (at, seq) — the comparator
// is a total order (seq is unique), so any heap shape yields the same pop
// sequence, and lazy deletion/compaction never reorder live events.
// Simultaneous events therefore fire in the order they were scheduled.

// event is one pooled scheduler slot. fn == nil marks a tombstone (the
// slot was canceled but is still queued); gen increments every time the
// slot is released to the free list, invalidating outstanding handles.
type event struct {
	at  Time
	seq uint64
	gen uint64
	fn  func()
}

// minQueueCap is the capacity floor below which the heap and free list
// are never shrunk, and the queue size below which tombstone compaction
// is not worth a pass.
const minQueueCap = 64

// eventQueue is the pooled 4-ary min-heap. The zero value is ready to use.
type eventQueue struct {
	heap []*event
	free []*event
	dead int // tombstoned events still in heap
}

// less orders events by (time, insertion sequence), so simultaneous
// events fire in FIFO order.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// live reports the number of non-tombstoned events queued.
func (q *eventQueue) live() int { return len(q.heap) - q.dead }

// alloc takes a slot from the free list, or mints one.
func (q *eventQueue) alloc() *event {
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	return &event{}
}

// release invalidates every outstanding handle to e and returns the slot
// to the free list.
func (q *eventQueue) release(e *event) {
	e.gen++
	e.fn = nil
	q.free = append(q.free, e)
}

// push inserts e, sifting it up from the bottom.
func (q *eventQueue) push(e *event) {
	q.heap = append(q.heap, e)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !less(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// popMin removes and returns the (at, seq)-minimum event, tombstone or not.
func (q *eventQueue) popMin() *event {
	h := q.heap
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	q.heap = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return e
}

// siftDown restores the heap property from index i toward the leaves.
func (q *eventQueue) siftDown(i int) {
	h := q.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c // minimum of the (up to four) children
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// popLive removes and returns the next live event, releasing any
// tombstones that surface on the way. It returns nil when the queue is
// empty.
func (q *eventQueue) popLive() *event {
	for len(q.heap) > 0 {
		e := q.popMin()
		q.maybeShrink()
		if e.fn == nil {
			q.dead--
			q.release(e)
			continue
		}
		return e
	}
	return nil
}

// peekLive returns the next live event without removing it, draining any
// tombstones at the top. It returns nil when the queue is empty.
func (q *eventQueue) peekLive() *event {
	for len(q.heap) > 0 {
		e := q.heap[0]
		if e.fn != nil {
			return e
		}
		q.popMin()
		q.dead--
		q.release(e)
	}
	return nil
}

// compact removes every tombstone in one pass and re-heapifies. Called
// when tombstones outnumber live events, so the amortized cost per cancel
// stays O(1). Heapify preserves the (at, seq) pop order because the
// comparator is a total order.
func (q *eventQueue) compact() {
	h := q.heap
	w := 0
	for _, e := range h {
		if e.fn != nil {
			h[w] = e
			w++
		} else {
			q.release(e)
		}
	}
	for i := w; i < len(h); i++ {
		h[i] = nil
	}
	q.heap = h[:w]
	q.dead = 0
	for i := (w - 2) >> 2; i >= 0; i-- {
		q.siftDown(i)
	}
}

// maybeShrink gives memory back after a burst: when the heap occupies a
// quarter or less of its capacity the backing array is reallocated at
// twice the live size, and the free list is trimmed to the same order of
// magnitude so a drained 100k-event burst does not pin 100k dead slots.
// The 4x hysteresis keeps steady-state traffic from thrashing between
// grow and shrink.
func (q *eventQueue) maybeShrink() {
	if c := cap(q.heap); c > minQueueCap && len(q.heap) <= c/4 {
		newCap := len(q.heap) * 2
		if newCap < minQueueCap {
			newCap = minQueueCap
		}
		nh := make([]*event, len(q.heap), newCap)
		copy(nh, q.heap)
		q.heap = nh
		if limit := 2*len(q.heap) + minQueueCap; len(q.free) > limit {
			nf := make([]*event, limit)
			copy(nf, q.free[:limit])
			q.free = nf
		}
	}
}
