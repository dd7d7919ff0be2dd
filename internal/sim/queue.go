package sim

// Queue is a growable ring-buffer FIFO. The hot simulation loops pop
// from the front of small queues every cycle; re-slicing (`q = q[1:]`)
// leaks front capacity and forces periodic reallocation, while a ring
// reuses one backing array forever — after warmup the steady-state
// allocation rate is zero. Semantics are exactly those of the slice
// queues it replaces: FIFO order, Peek/Pop from the front, Push to the
// back.
//
// Invariant: len(buf) is zero or a power of two (grow starts at 8 and
// doubles), so a position wraps with `& (len(buf)-1)` — no division on
// the per-instruction path.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the back, growing the ring when full.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Peek returns the front item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	return q.buf[q.head], true
}

// Front returns a pointer to the front item; it panics on an empty
// queue. The pointer is valid until the next Push or Pop.
func (q *Queue[T]) Front() *T {
	if q.n == 0 {
		panic("sim: Front of empty Queue")
	}
	return &q.buf[q.head]
}

// Pop removes and returns the front item.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop references for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v, true
}

// At returns the item at position i from the front (0 = front); it
// panics when i is out of range.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: Queue index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// grow doubles the ring (8 at first), linearizing the contents.
func (q *Queue[T]) grow() {
	capacity := len(q.buf) * 2
	if capacity == 0 {
		capacity = 8
	}
	buf := make([]T, capacity)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}
