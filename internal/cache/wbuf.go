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
type WriteBuffer struct {
	entries []WBEntry
	max     int
}

// NewWriteBuffer builds a buffer with max entries.
func NewWriteBuffer(max int) *WriteBuffer {
	if max <= 0 {
		max = 1
	}
	return &WriteBuffer{max: max, entries: make([]WBEntry, 0, max)}
}

// Add inserts a write for line, coalescing with an existing entry of the
// same line. It reports false when the buffer is full.
func (w *WriteBuffer) Add(line mem.Addr, kind mem.Kind) bool {
	for i := range w.entries {
		if w.entries[i].Line == line {
			// A writeback carries the whole dirty block; it subsumes a
			// pending store, so keep the stronger kind.
			if kind == mem.Writeback {
				w.entries[i].Kind = mem.Writeback
			}
			return true
		}
	}
	if len(w.entries) >= w.max {
		return false
	}
	//lnuca:allow(hotalloc) appends into capacity fixed at max; the check above bounds the length
	w.entries = append(w.entries, WBEntry{Line: line, Kind: kind})
	return true
}

// Pop removes and returns the oldest entry. The shift keeps the (small,
// bounded) backing array reusable instead of leaking front capacity.
func (w *WriteBuffer) Pop() (WBEntry, bool) {
	if len(w.entries) == 0 {
		return WBEntry{}, false
	}
	e := w.entries[0]
	copy(w.entries, w.entries[1:])
	w.entries = w.entries[:len(w.entries)-1]
	return e, true
}

// Peek returns the oldest entry without removing it.
func (w *WriteBuffer) Peek() (WBEntry, bool) {
	if len(w.entries) == 0 {
		return WBEntry{}, false
	}
	return w.entries[0], true
}

// Contains reports whether a write for line is pending, so loads can be
// answered from the buffer (a simplified store-forwarding check).
func (w *WriteBuffer) Contains(line mem.Addr) bool {
	for i := range w.entries {
		if w.entries[i].Line == line {
			return true
		}
	}
	return false
}

// Len returns the number of pending writes.
func (w *WriteBuffer) Len() int { return len(w.entries) }

// Full reports whether another distinct line cannot be accepted.
func (w *WriteBuffer) Full() bool { return len(w.entries) >= w.max }
