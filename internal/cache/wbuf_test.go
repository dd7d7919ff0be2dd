package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestWriteBufferCoalescing(t *testing.T) {
	w := NewWriteBuffer(4)
	if !w.Add(0x100, mem.Write) {
		t.Fatal("add to empty buffer failed")
	}
	if !w.Add(0x100, mem.Write) {
		t.Fatal("coalescing add failed")
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (coalesced)", w.Len())
	}
	if !w.Add(0x200, mem.Write) || w.Len() != 2 {
		t.Fatalf("Len = %d after a second line, want 2 (inserted)", w.Len())
	}
}

func TestWriteBufferWritebackSubsumesStore(t *testing.T) {
	w := NewWriteBuffer(4)
	w.Add(0x100, mem.Write)
	w.Add(0x100, mem.Writeback)
	e, ok := w.Pop()
	if !ok || e.Kind != mem.Writeback {
		t.Fatalf("entry = %+v, want writeback kind", e)
	}
}

func TestWriteBufferCapacity(t *testing.T) {
	w := NewWriteBuffer(2)
	w.Add(0x100, mem.Write)
	w.Add(0x200, mem.Write)
	if !w.Full() {
		t.Fatal("buffer should be full")
	}
	if w.Add(0x300, mem.Write) {
		t.Fatal("add beyond capacity should fail")
	}
	if !w.Add(0x100, mem.Write) {
		t.Fatal("coalescing into a full buffer must still succeed")
	}
	if w.Len() != 2 || w.Contains(0x300) {
		t.Fatalf("Len = %d, holds the rejected line %v; want 2 without it", w.Len(), w.Contains(0x300))
	}
}

func TestWriteBufferFIFO(t *testing.T) {
	w := NewWriteBuffer(8)
	lines := []mem.Addr{0x100, 0x200, 0x300}
	for _, l := range lines {
		w.Add(l, mem.Write)
	}
	for _, want := range lines {
		e, ok := w.Pop()
		if !ok || e.Line != want {
			t.Fatalf("Pop = %+v, want line %#x", e, uint64(want))
		}
	}
	if _, ok := w.Pop(); ok {
		t.Fatal("Pop on empty should fail")
	}
}

func TestWriteBufferContainsAndPeek(t *testing.T) {
	w := NewWriteBuffer(4)
	if _, ok := w.Peek(); ok {
		t.Fatal("Peek on empty should fail")
	}
	w.Add(0x100, mem.Write)
	if !w.Contains(0x100) || w.Contains(0x200) {
		t.Fatal("Contains wrong")
	}
	e, ok := w.Peek()
	if !ok || e.Line != 0x100 || w.Len() != 1 {
		t.Fatal("Peek must not remove")
	}
}

// Property: Len never exceeds capacity; distinct lines in the buffer are
// unique (coalescing invariant).
func TestWriteBufferInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		w := NewWriteBuffer(4)
		for _, op := range ops {
			line := mem.Addr(op & 0x7)
			if op&0x80 != 0 {
				w.Pop()
			} else {
				w.Add(line, mem.Write)
			}
			if w.Len() > 4 {
				return false
			}
			seen := map[mem.Addr]bool{}
			for i := 0; i < w.Len(); i++ {
				e := w.entries[i]
				if seen[e.Line] {
					return false
				}
				seen[e.Line] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWriteBufferDegenerateCapacity(t *testing.T) {
	w := NewWriteBuffer(0)
	if !w.Add(0x1, mem.Write) {
		t.Fatal("clamped buffer should hold one entry")
	}
}
