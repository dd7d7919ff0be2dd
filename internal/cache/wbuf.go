package cache

import "repro/internal/mem"

// WBEntry is one pending write in a write buffer.
type WBEntry struct {
	Line mem.Addr
	// Kind distinguishes write-through stores (mem.Write) from evicted
	// dirty blocks (mem.Writeback); both coalesce by line.
	Kind mem.Kind
}

// WriteBuffer is a bounded coalescing write buffer. Stores to the same
// block merge into one entry, the behaviour that makes write-through L1
// caches viable (Table I gives 32-entry write buffers at L2 and L3).
// The n entries from head live in a power-of-two ring, so Pop advances
// head and moves nothing.
type WriteBuffer struct {
	ring    []WBEntry
	head, n int
	max     int
}

// NewWriteBuffer builds a buffer with max entries.
func NewWriteBuffer(max int) *WriteBuffer {
	if max <= 0 {
		max = 1
	}
	ring := 1
	for ring < max {
		ring <<= 1
	}
	return &WriteBuffer{max: max, ring: make([]WBEntry, ring)}
}

// at returns the i-th oldest entry.
func (w *WriteBuffer) at(i int) *WBEntry { return &w.ring[(w.head+i)&(len(w.ring)-1)] }

// Add inserts a write for line, coalescing with an existing entry of the
// same line. It reports false when the buffer is full.
func (w *WriteBuffer) Add(line mem.Addr, kind mem.Kind) bool {
	for i := 0; i < w.n; i++ {
		if e := w.at(i); e.Line == line {
			// A writeback carries the whole dirty block; it subsumes a
			// pending store, so keep the stronger kind.
			if kind == mem.Writeback {
				e.Kind = mem.Writeback
			}
			return true
		}
	}
	if w.n >= w.max {
		return false
	}
	*w.at(w.n) = WBEntry{Line: line, Kind: kind}
	w.n++
	return true
}

// Pop removes and returns the oldest entry.
func (w *WriteBuffer) Pop() (WBEntry, bool) {
	e, ok := w.Peek()
	if ok {
		w.head = (w.head + 1) & (len(w.ring) - 1)
		w.n--
	}
	return e, ok
}

// Peek returns the oldest entry without removing it.
func (w *WriteBuffer) Peek() (WBEntry, bool) {
	if w.n == 0 {
		return WBEntry{}, false
	}
	return *w.at(0), true
}

// Contains reports whether a write for line is pending, so loads can be
// answered from the buffer (a simplified store-forwarding check).
func (w *WriteBuffer) Contains(line mem.Addr) bool {
	for i := 0; i < w.n; i++ {
		if w.at(i).Line == line {
			return true
		}
	}
	return false
}

// Len returns the number of pending writes.
func (w *WriteBuffer) Len() int { return w.n }

// Full reports whether another distinct line cannot be accepted.
func (w *WriteBuffer) Full() bool { return w.n >= w.max }
