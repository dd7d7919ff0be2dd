package mem

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// sliceChan is the two-phase contract written as plainly as it reads:
// a visible slice, a staged slice and the visible count latched at the
// last tick. It is the model the ring Chan is held against.
type sliceChan struct {
	capacity        int
	visible, staged []int
	latched         int
}

func (m *sliceChan) canPush() bool { return m.latched+len(m.staged) < m.capacity }

// remove drops the oldest visible item equal to v and reports whether
// there was one; the latched count stays, as a pop's does.
func (m *sliceChan) remove(v int) bool {
	for i, x := range m.visible {
		if x == v {
			m.visible = append(m.visible[:i:i], m.visible[i+1:]...)
			return true
		}
	}
	return false
}

func (m *sliceChan) tick() (published bool) {
	published = len(m.staged) > 0
	m.visible = append(m.visible, m.staged...)
	m.staged = nil
	m.latched = len(m.visible)
	return published
}

// TestChanMatchesSliceModel runs seeded sequences of Push, Pop, Tick,
// Remove and Contains on rings of every capacity from 1 to 9 — powers of
// two and not, with the head wrapping many times — and after each step
// compares Len, Peek, CanPush, Snapshot and which ends were woken with
// the slice model.
func TestChanMatchesSliceModel(t *testing.T) {
	for capacity := 1; capacity <= 9; capacity++ {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rng := sim.NewRand(uint64(capacity))
			c := NewChan[int](capacity)
			var pokes uint64
			c.consumer, c.producer = sim.NewWaker(&pokes, 1), sim.NewWaker(&pokes, 2)
			m := &sliceChan{capacity: capacity}
			next, ops := 0, map[string]int{}
			for step := 0; step < 20_000; step++ {
				pokes = 0
				var op string
				var wantPokes uint64
				switch r := rng.Intn(10); {
				case r < 4:
					op = "push"
					if !m.canPush() {
						op = "refused push"
						break
					}
					next++
					c.Push(next)
					m.staged = append(m.staged, next)
				case r < 6:
					op = "pop"
					v, ok := c.Pop()
					if ok != (len(m.visible) > 0) || (ok && v != m.visible[0]) {
						t.Fatalf("step %d: Pop = %d, %v; model %v", step, v, ok, m.visible)
					}
					if ok {
						m.visible = m.visible[1:]
						wantPokes = 2
					}
				case r < 8:
					op = "tick"
					c.Tick()
					if m.tick() {
						wantPokes = 1
					}
				default:
					// A value that is visible, staged or absent, so a
					// remove hits the middle, misses the staged ones and
					// misses outright.
					v := next - rng.Intn(capacity+2)
					inModel := false
					for _, x := range m.visible {
						inModel = inModel || x == v
					}
					is := func(x int) bool { return x == v }
					if got := c.Contains(is); got != inModel {
						t.Fatalf("step %d: Contains(%d) = %v; model %v", step, v, got, m.visible)
					}
					op = "missed remove"
					got, ok := c.Remove(is)
					if ok != m.remove(v) || (ok && got != v) {
						t.Fatalf("step %d: Remove(%d) = %d, %v; model %v", step, v, got, ok, m.visible)
					}
					if ok {
						op = "remove"
						wantPokes = 2
						if c.head&c.mask > c.tail&c.mask {
							op = "remove across the wrap"
						}
					}
				}
				ops[op]++
				if pokes != wantPokes {
					t.Fatalf("step %d (%s): woke %02b, want %02b", step, op, pokes, wantPokes)
				}
				if c.Len() != len(m.visible) || c.CanPush() != m.canPush() {
					t.Fatalf("step %d (%s): Len %d, CanPush %v; model %d, %v", step, op, c.Len(), c.CanPush(), len(m.visible), m.canPush())
				}
				if v, ok := c.Peek(); ok != (len(m.visible) > 0) || (ok && v != m.visible[0]) {
					t.Fatalf("step %d (%s): Peek = %d, %v; model %v", step, op, v, ok, m.visible)
				}
				if got, want := c.Snapshot(), append(append([]int{}, m.visible...), m.staged...); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%s): Snapshot %v, model %v", step, op, got, want)
				}
			}
			for _, op := range []string{"push", "refused push", "pop", "tick", "remove", "missed remove"} {
				if ops[op] == 0 {
					t.Errorf("the sequence never made a %s", op)
				}
			}
			if capacity > 2 && ops["remove across the wrap"] == 0 {
				t.Errorf("the sequence never removed across the wrap")
			}
		})
	}
}
