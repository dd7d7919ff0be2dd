package lnuca

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestULinkRemovesFromTheMiddleOfAWrappedRing: a U-buffer comparator hit
// on the middle block of a link whose ring has wrapped, with a block
// staged behind it, takes that block out, keeps the others in order and
// frees no space until the link ticks.
func TestULinkRemovesFromTheMiddleOfAWrappedRing(t *testing.T) {
	touched := sim.NewBitSet(1)
	l := newLink[blockMsg](4, linkRef{touched: touched})
	blk := func(line mem.Addr) blockMsg { return blockMsg{line: line} }
	// Move the head three slots on, so the next blocks wrap the ring.
	for i := 0; i < 3; i++ {
		l.send(blk(0x10))
		l.tick()
		l.pop()
		l.tick()
	}
	for _, line := range []mem.Addr{0x100, 0x200, 0x300} {
		l.send(blk(line))
		l.tick()
	}
	l.send(blk(0x400)) // staged: visible from the next tick
	touched.Clear(0)

	isLine := func(line mem.Addr) func(blockMsg) bool {
		return func(b blockMsg) bool { return b.line == line }
	}
	if l.ch.Contains(isLine(0x400)) {
		t.Fatal("the comparators matched a staged block")
	}
	if got, ok := l.remove(isLine(0x200)); !ok || got.line != 0x200 {
		t.Fatalf("remove(0x200) = %+v, %v", got, ok)
	}
	if !touched.Has(0) {
		t.Fatal("a remove did not mark the link for its tick")
	}
	want := []blockMsg{blk(0x100), blk(0x300), blk(0x400)}
	if got := l.ch.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the remove the link holds %+v, want %+v", got, want)
	}
	if l.ch.Len() != 2 || l.ch.Contains(isLine(0x200)) {
		t.Fatalf("%d blocks visible after the remove, want 2 without 0x200", l.ch.Len())
	}
	if l.ch.CanPush() {
		t.Fatal("the remove freed space before the tick")
	}
	l.tick()
	if l.ch.Len() != 3 || !l.on() {
		t.Fatalf("after the tick: %d visible, on %v; want 3, true", l.ch.Len(), l.on())
	}
	for _, line := range []mem.Addr{0x100, 0x300, 0x400} {
		if b, ok := l.ch.Peek(); !ok || b.line != line {
			t.Fatalf("head %+v, %v; want line %#x", b, ok, uint64(line))
		}
		l.pop()
	}
}
