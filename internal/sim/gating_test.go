package sim

import "testing"

// tickComp is a Wired test component: it "acts" at scheduled cycles,
// counts Evals and skipped cycles, and is idle in between. It has no
// channels, so its Wire is a no-op and only its wake cycles wake it; its
// NextEvent answers from its own state.
type tickComp struct {
	name     string
	events   []Cycle // sorted cycles at which the component is active
	evals    uint64
	idleSeen uint64 // cycles covered by SkipTo
}

func (c *tickComp) Name() string     { return c.name }
func (c *tickComp) Commit(k *Kernel) {}
func (c *tickComp) Wire(Waker)       {}
func (c *tickComp) Eval(k *Kernel) {
	c.evals++
	for len(c.events) > 0 && c.events[0] <= k.Cycle() {
		c.events = c.events[1:]
	}
}
func (c *tickComp) NextEvent(now Cycle) (Cycle, bool) {
	if len(c.events) == 0 {
		return Never, true
	}
	if c.events[0] <= now {
		return 0, false
	}
	return c.events[0], true
}
func (c *tickComp) SkipTo(now, target Cycle) { c.idleSeen += target - now }

// plainComp does not implement Quiescent.
type plainComp struct{ evals uint64 }

func (c *plainComp) Name() string     { return "plain" }
func (c *plainComp) Eval(k *Kernel)   { c.evals++ }
func (c *plainComp) Commit(k *Kernel) {}

// TestFastForwardSkipsToEarliestWake: with every component quiescent,
// Run jumps straight between event cycles and accounts the skipped
// cycles via SkipTo.
func TestFastForwardSkipsToEarliestWake(t *testing.T) {
	a := &tickComp{name: "a", events: []Cycle{10, 500}}
	b := &tickComp{name: "b", events: []Cycle{300}}
	k := NewKernel()
	k.MustRegister(a)
	k.MustRegister(b)
	ran := k.Run(1000)
	if ran != 1000 {
		t.Fatalf("ran %d cycles, want 1000", ran)
	}
	if k.SkippedCycles == 0 || k.FastForwards == 0 {
		t.Fatalf("no fast-forwarding happened: skipped=%d jumps=%d", k.SkippedCycles, k.FastForwards)
	}
	// Each component's view of time must be complete: evaluated cycles
	// plus skipped cycles cover the whole window.
	for _, c := range []*tickComp{a, b} {
		if got := c.evals + c.idleSeen; got != 1000 {
			t.Errorf("%s: evals(%d) + skipped(%d) = %d, want 1000", c.name, c.evals, c.idleSeen, got)
		}
	}
	// b is active only around cycle 300; the bulk of its cycles must
	// have been skipped, not evaluated.
	if b.evals > 10 {
		t.Errorf("b evaluated %d cycles; expected almost all to be skipped or Eval-skipped", b.evals)
	}
}

// TestFastForwardClampsToBudget: a wake beyond the Run budget must not
// overshoot the requested cycle count. The component is evaluated on the
// Run's first cycle and skips the rest.
func TestFastForwardClampsToBudget(t *testing.T) {
	a := &tickComp{name: "a", events: []Cycle{5000}}
	k := NewKernel()
	k.MustRegister(a)
	if ran := k.Run(100); ran != 100 {
		t.Fatalf("ran %d cycles, want exactly the 100-cycle budget", ran)
	}
	if k.Cycle() != 100 {
		t.Fatalf("clock at %d, want 100", k.Cycle())
	}
	if a.evals != 1 || a.idleSeen != 99 {
		t.Fatalf("component evaluated %d cycles and skipped %d, want 1 and 99", a.evals, a.idleSeen)
	}
}

// TestActiveSetSkipsIdleEvals: while one component is active every
// cycle, an idle peer must advance arithmetically instead of being
// evaluated, after the Eval every component gets on a Run's first cycle.
func TestActiveSetSkipsIdleEvals(t *testing.T) {
	busy := &tickComp{name: "busy"}
	for c := Cycle(0); c < 200; c++ {
		busy.events = append(busy.events, c)
	}
	idle := &tickComp{name: "idle"}
	k := NewKernel()
	k.MustRegister(busy)
	k.MustRegister(idle)
	if ran := k.Run(200); ran != 200 {
		t.Fatalf("ran %d, want 200", ran)
	}
	if busy.evals != 200 {
		t.Errorf("busy evaluated %d cycles, want 200", busy.evals)
	}
	if idle.evals != 1 || idle.idleSeen != 199 {
		t.Errorf("idle: evals=%d skipped=%d, want 1/199", idle.evals, idle.idleSeen)
	}
	if k.EvalsSkipped != 199 {
		t.Errorf("kernel recorded %d skipped Evals, want 199", k.EvalsSkipped)
	}
}

// TestGatingDisabledFallsBackToLockstep: SetGating(false) and mixed
// component sets must take the plain Step path.
func TestGatingDisabledFallsBackToLockstep(t *testing.T) {
	a := &tickComp{name: "a", events: []Cycle{900}}
	k := NewKernel()
	k.SetGating(false)
	k.MustRegister(a)
	k.Run(100)
	if a.evals != 100 || k.SkippedCycles != 0 {
		t.Errorf("gating disabled: evals=%d skipped=%d, want 100/0", a.evals, k.SkippedCycles)
	}

	b := &tickComp{name: "b", events: nil}
	k2 := NewKernel()
	k2.MustRegister(b)
	k2.MustRegister(&plainComp{}) // not Quiescent: machine can never gate
	k2.Run(100)
	if b.evals != 100 || k2.SkippedCycles != 0 {
		t.Errorf("mixed set: evals=%d skipped=%d, want 100/0", b.evals, k2.SkippedCycles)
	}
}

// TestQueueRingSemantics pins FIFO order, wraparound reuse and At
// indexing of the ring queue the hot loops rely on.
func TestQueueRingSemantics(t *testing.T) {
	var q Queue[int]
	if _, ok := q.Pop(); ok {
		t.Fatal("empty queue popped a value")
	}
	// Interleave pushes and pops across several wraps.
	next, expect := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < q.Len(); i++ {
			if got := q.At(i); got != expect+i {
				t.Fatalf("At(%d) = %d, want %d", i, got, expect+i)
			}
		}
		for i := 0; i < 2; i++ {
			v, ok := q.Pop()
			if !ok || v != expect {
				t.Fatalf("Pop = %d,%v want %d", v, ok, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		v, _ := q.Pop()
		if v != expect {
			t.Fatalf("drain got %d want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained to %d, want %d", expect, next)
	}
}

// TestQueueWrapMask checks the masked ring against a slice model across
// several growths, each taken with the head mid-ring so grow linearizes
// wrapped contents, and pins the power-of-two invariant the mask needs.
func TestQueueWrapMask(t *testing.T) {
	var q Queue[int]
	var model []int
	rng := NewRand(3)
	check := func() {
		t.Helper()
		if n := len(q.buf); n&(n-1) != 0 {
			t.Fatalf("ring length %d is not a power of two", n)
		}
		if q.Len() != len(model) {
			t.Fatalf("Len = %d, model has %d", q.Len(), len(model))
		}
		for i, want := range model {
			if got := q.At(i); got != want {
				t.Fatalf("At(%d) = %d, want %d (ring %d, head %d)", i, got, want, len(q.buf), q.head)
			}
		}
		if len(model) > 0 {
			if got := *q.Front(); got != model[0] {
				t.Fatalf("Front = %d, want %d", got, model[0])
			}
		}
	}
	next, growths := 0, 0
	// Occupancy drifts upwards (3 pushes per 2 pops on average), so the
	// ring wraps many times at each size before it doubles.
	for step := 0; step < 4000; step++ {
		if rng.Intn(5) < 3 {
			before := len(q.buf)
			q.Push(next)
			model = append(model, next)
			next++
			if len(q.buf) != before {
				growths++
			}
		} else if v, ok := q.Pop(); ok != (len(model) > 0) {
			t.Fatalf("Pop ok = %v with %d modelled items", ok, len(model))
		} else if ok {
			if v != model[0] {
				t.Fatalf("Pop = %d, want %d", v, model[0])
			}
			model = model[1:]
		}
		check()
	}
	if growths < 5 {
		t.Fatalf("only %d growths exercised", growths)
	}
}
