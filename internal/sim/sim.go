// Package sim implements the deterministic cycle-driven simulation kernel.
//
// The kernel advances all registered components in lockstep using a
// two-phase clock, the standard discipline of RTL simulators: during Eval a
// component reads only the *current* (latched) state of the system and
// computes its next state; during Commit every component atomically latches
// next state into current state. Because Eval never observes another
// component's next state, results are independent of registration order and
// the simulation is exactly reproducible.
package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a simulation timestamp in processor clock cycles.
type Cycle = uint64

// Never is the sentinel wake cycle of a component that is idle until
// external input arrives: no timed event of its own will ever wake it.
const Never = ^Cycle(0)

// Component is a clocked hardware block.
type Component interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Eval computes the component's next state for the current cycle. It
	// must only read latched state (its own and other components').
	Eval(k *Kernel)
	// Commit latches next state computed by Eval into current state.
	Commit(k *Kernel)
}

// Quiescent is the optional activity-gating protocol. A component that
// implements it lets the kernel skip cycles in which the whole machine
// is provably doing nothing (e.g. every level stalled on a DRAM access)
// by bulk-advancing the clock instead of spinning no-op Steps.
//
// The contract (see DESIGN.md, "Quiescence and fast-forward"):
//
//   - NextEvent(now) is asked only of a Wired component that evaluated
//     on the previous stepped cycle and has had no input since. It
//     returns idle=true only if, absent new input on the component's
//     inbound channels, Eval at every cycle in [now, wake) would change
//     NOTHING except the purely arithmetic per-cycle bookkeeping that
//     SkipTo replicates (cycle counters, stall counters). wake may be
//     conservatively early — Eval at wake runs normally — but never
//     late; a wake <= now counts as active. Never means "only external
//     input wakes me". A component that embeds Activity answers from
//     what its last Eval recorded.
//   - NextEvent must not mutate any state that affects simulation
//     results (in particular it must not draw from seeded RNGs).
//   - SkipTo(from, to) applies exactly the bookkeeping that to-from
//     idle Evals would have applied: what the last Eval, which did not
//     act, applied once per cycle. It may be applied late and in
//     pieces, and reads only that record, never live channel state:
//     input that arrived meanwhile counts from the next Eval.
//
// Because two-phase channels publish pushes only at Commit, a component
// that is idle at the start of a cycle cannot receive mid-cycle input;
// all-idle rounds are therefore sound to skip, and gated and ungated
// runs produce bit-identical statistics.
type Quiescent interface {
	Component
	NextEvent(now Cycle) (wake Cycle, idle bool)
	SkipTo(from, to Cycle)
}

// Activity is the record an Eval leaves of what it found, and the
// NextEvent a component answers from it. A component embeds it and
// calls Begin at the top of Eval, Acted wherever Eval changes state, and
// WakeAt for each wait that ends at a known cycle without new input; a
// wait that only a channel ends records nothing, since the channel wakes
// the component. The zero value reports active, so a component is
// evaluated before it first sleeps.
type Activity struct {
	acted bool
	wake  Cycle
}

// Begin resets the record at the top of Eval.
func (a *Activity) Begin() { a.acted, a.wake = false, Never }

// Acted records that Eval changed state.
func (a *Activity) Acted() { a.acted = true }

// WakeAt records a wait that ends at cycle c without new input.
func (a *Activity) WakeAt(c Cycle) {
	if c < a.wake {
		a.wake = c
	}
}

// NextEvent implements Quiescent from the record: idle when the last
// Eval did not act, until the earliest wake it recorded.
func (a *Activity) NextEvent(Cycle) (wake Cycle, idle bool) { return a.wake, !a.acted }

// Waker wakes one sleeping component of a kernel. A component's inputs
// are its channel ends, so the channels call it: a publish wakes the
// consumer, a pop wakes the producer (whose next Tick makes the space
// visible). The zero Waker does nothing.
type Waker struct {
	poked *uint64
	bit   uint64
}

// Wake marks the component as having new input: the kernel Commits it
// this cycle and evaluates it on the next.
func (w Waker) Wake() {
	if w.poked != nil {
		*w.poked |= w.bit
	}
}

// Wired is implemented by a Quiescent component whose every input
// arrives through channel ends it hands a Waker. Register wires it; a
// gated Run then leaves it asleep, neither evaluated nor committed, from
// the cycle it reports idle until a channel wakes it or its wake cycle
// arrives. Only a Wired component sleeps: one that is not is evaluated
// and committed every cycle.
type Wired interface {
	Quiescent
	Wire(w Waker)
}

// maxGated is the most components a gated Run tracks: one bit each in a
// word. A larger kernel steps in lockstep.
const maxGated = 64

// Kernel owns the clock and the component list.
type Kernel struct {
	cycle      Cycle
	components []Component
	quiescent  []Quiescent
	names      map[string]bool
	stopped    bool
	gating     bool

	// The gated Run's sleep state, one bit per component index: wired
	// components; those asleep (idle at their last poll, their SkipTo
	// owed from idleFrom on); and those a channel woke. due is a lower
	// bound on the sleepers' earliest wakeAt.
	wired, asleep, poked uint64
	idleFrom, wakeAt     []Cycle
	due                  Cycle

	// FastForwards counts bulk clock advances; SkippedCycles counts the
	// cycles they covered (cycles never Stepped); EvalsSkipped counts
	// single-component Eval skips on stepped cycles, sleepers included.
	// Exposed for tests and the MIPS benchmarks.
	FastForwards, SkippedCycles, EvalsSkipped uint64

	// SteppedCycles counts cycles actually executed (full or partial
	// steps — everything except fast-forwarded cycles); ActiveEvals
	// counts component Evals that ran, so ActiveEvals/SteppedCycles is
	// the mean active-set occupancy.
	SteppedCycles, ActiveEvals uint64
}

// NewKernel returns an empty kernel at cycle 0 with activity gating
// enabled (gating only ever engages when every registered component
// implements Quiescent).
func NewKernel() *Kernel {
	return &Kernel{names: make(map[string]bool), gating: true}
}

// SetGating enables or disables the quiescence fast-forward. Disabling
// it forces plain lockstep stepping; results are bit-identical either
// way (the equivalence tests pin this).
func (k *Kernel) SetGating(enabled bool) { k.gating = enabled }

// Gating reports whether fast-forwarding is enabled.
func (k *Kernel) Gating() bool { return k.gating }

// Register adds a component to the kernel. Registering two components with
// the same name is an error, caught immediately to keep traces unambiguous.
func (k *Kernel) Register(c Component) error {
	if c == nil {
		return fmt.Errorf("sim: cannot register nil component")
	}
	if k.names[c.Name()] {
		return fmt.Errorf("sim: duplicate component name %q", c.Name())
	}
	k.names[c.Name()] = true
	i := len(k.components)
	k.components = append(k.components, c)
	if q, ok := c.(Quiescent); ok {
		k.quiescent = append(k.quiescent, q)
	}
	k.idleFrom = append(k.idleFrom, 0)
	k.wakeAt = append(k.wakeAt, 0)
	if w, ok := c.(Wired); ok && i < maxGated {
		k.wired |= 1 << i
		w.Wire(Waker{poked: &k.poked, bit: 1 << i})
	}
	return nil
}

// MustRegister is Register that panics on error, for wiring code where a
// duplicate name is a programming bug.
func (k *Kernel) MustRegister(c Component) {
	if err := k.Register(c); err != nil {
		panic(err)
	}
}

// Cycle returns the current cycle number.
func (k *Kernel) Cycle() Cycle { return k.cycle }

// Stop requests that Run return after the current cycle completes.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Step advances the simulation by exactly one cycle.
func (k *Kernel) Step() {
	for _, c := range k.components {
		c.Eval(k)
	}
	for _, c := range k.components {
		c.Commit(k)
	}
	k.cycle++
	k.SteppedCycles++
	k.ActiveEvals += uint64(len(k.components))
}

// Run steps the simulation until Stop is called or maxCycles elapse.
// It returns the number of cycles executed (stepped or fast-forwarded).
//
// When gating is enabled and every registered component implements
// Quiescent (and there are at most 64), Run keeps an active set, and a
// Wired component that reports idle goes to sleep until a channel wakes
// it or its wake cycle arrives. Each cycle:
//
//   - a component a channel woke, a sleeper whose wake is due and one
//     that is not Wired are evaluated without a poll;
//   - every other awake component evaluated on the previous stepped
//     cycle and has had no input since, so it is polled: active, it is
//     evaluated again; idle, it joins the sleepers, and its SkipTo is
//     owed from this cycle;
//   - all asleep with a known earliest wake → the clock bulk-advances to
//     that wake (clamped to the cycle budget) instead of spinning no-op
//     Steps;
//   - otherwise the evaluated components Commit, and so does any sleeper
//     a pop woke this cycle: its Tick makes the freed space visible, as
//     a full Step would.
//
// A sleeper's owed SkipTo is applied once, just before its next Eval,
// and for every sleeper when Run returns, so counters are exact whenever
// Run is not executing. Every component is evaluated on a Run's first
// cycle: Step or prewarm may have changed it since its last Eval.
//
// An idle component's Eval is a no-op this cycle even while others are
// active: pushes stage until Commit, so no input becomes visible
// mid-cycle. Gated and ungated runs are therefore bit-identical.
func (k *Kernel) Run(maxCycles uint64) uint64 {
	start := k.cycle
	limit := start + maxCycles
	if limit < start { // budget overflow: run to the end of time
		limit = Never
	}
	n := len(k.components)
	if !k.gating || len(k.quiescent) != n || n == 0 || n > maxGated {
		for !k.stopped && k.cycle < limit {
			k.Step()
		}
		return k.cycle - start
	}
	all := ^uint64(0) >> (maxGated - n)
	k.poked, k.due = all, Never
	var evaluated uint64 // the components evaluated on the last stepped cycle
	for !k.stopped && k.cycle < limit {
		now := k.cycle
		eval := k.poked | all&^k.wired
		k.poked = 0
		if k.due <= now {
			k.due = Never
			for m := k.asleep &^ eval; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				if w := k.wakeAt[i]; w <= now {
					eval |= 1 << i
				} else if w < k.due {
					k.due = w
				}
			}
		}
		for m := evaluated &^ eval; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if w, idle := k.quiescent[i].NextEvent(now); !idle || w <= now {
				eval |= 1 << i
			} else {
				k.asleep |= 1 << i
				k.idleFrom[i], k.wakeAt[i] = now, w
				k.due = min(k.due, w)
			}
		}
		for m := eval & k.asleep; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			k.quiescent[i].SkipTo(k.idleFrom[i], now)
		}
		k.asleep &^= eval
		evaluated = eval
		if eval == 0 {
			// Everyone is asleep: the earliest wake is exact here, so a
			// fast-forward lands where stepping would next evaluate.
			wake := Never
			for m := k.asleep; m != 0; m &= m - 1 {
				wake = min(wake, k.wakeAt[bits.TrailingZeros64(m)])
			}
			k.due = wake
			if wake != Never {
				// Fast-forward: skip [now, wake) entirely.
				k.cycle = min(wake, limit)
				k.FastForwards++
				k.SkippedCycles += k.cycle - now
				continue
			}
		}
		for m := eval; m != 0; m &= m - 1 {
			k.components[bits.TrailingZeros64(m)].Eval(k)
		}
		for m := eval | k.poked; m != 0; m &= m - 1 {
			k.components[bits.TrailingZeros64(m)].Commit(k)
		}
		evals := uint64(bits.OnesCount64(eval))
		k.cycle++
		k.SteppedCycles++
		k.ActiveEvals += evals
		k.EvalsSkipped += uint64(n) - evals
	}
	for m := k.asleep; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		k.quiescent[i].SkipTo(k.idleFrom[i], k.cycle)
	}
	k.asleep = 0
	return k.cycle - start
}

// NumComponents returns how many components are registered.
func (k *Kernel) NumComponents() int { return len(k.components) }

// KernelStats is a snapshot of the kernel's activity counters — the
// raw material for the skip-ratio and occupancy numbers the
// observability layer publishes.
type KernelStats struct {
	// Cycle is the clock at snapshot time (cycles elapsed, in a Delta).
	Cycle Cycle
	// Components is the number of registered components.
	Components int
	// Stepped counts cycles actually executed; SkippedCycles counts
	// cycles covered by fast-forwards, so Stepped+SkippedCycles is the
	// simulated-time total.
	Stepped uint64
	// FastForwards counts bulk clock advances.
	FastForwards uint64
	// SkippedCycles counts cycles never stepped.
	SkippedCycles uint64
	// EvalsSkipped counts single-component Eval skips on stepped
	// cycles, sleepers included.
	EvalsSkipped uint64
	// ActiveEvals counts component Evals that ran.
	ActiveEvals uint64
}

// Stats snapshots the kernel's activity counters.
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		Cycle:         k.cycle,
		Components:    len(k.components),
		Stepped:       k.SteppedCycles,
		FastForwards:  k.FastForwards,
		SkippedCycles: k.SkippedCycles,
		EvalsSkipped:  k.EvalsSkipped,
		ActiveEvals:   k.ActiveEvals,
	}
}

// Delta returns the activity between an earlier snapshot and this one:
// counter differences, with Cycle holding the cycles elapsed.
func (s KernelStats) Delta(prev KernelStats) KernelStats {
	return KernelStats{
		Cycle:         s.Cycle - prev.Cycle,
		Components:    s.Components,
		Stepped:       s.Stepped - prev.Stepped,
		FastForwards:  s.FastForwards - prev.FastForwards,
		SkippedCycles: s.SkippedCycles - prev.SkippedCycles,
		EvalsSkipped:  s.EvalsSkipped - prev.EvalsSkipped,
		ActiveEvals:   s.ActiveEvals - prev.ActiveEvals,
	}
}

// SkipRatio is the fraction of simulated cycles that were
// fast-forwarded rather than executed: SkippedCycles over
// Stepped+SkippedCycles. 0 when nothing has run.
func (s KernelStats) SkipRatio() float64 {
	total := s.Stepped + s.SkippedCycles
	if total == 0 {
		return 0
	}
	return float64(s.SkippedCycles) / float64(total)
}

// AvgActive is the mean number of components evaluated per executed
// cycle. 0 when nothing has stepped.
func (s KernelStats) AvgActive() float64 {
	if s.Stepped == 0 {
		return 0
	}
	return float64(s.ActiveEvals) / float64(s.Stepped)
}

// Reg is a single-entry register with two-phase semantics: writers set the
// next value during Eval; readers observe the value latched at the last
// Commit. Tick must be called from the owner's Commit.
type Reg[T any] struct {
	cur, next   T
	curV, nextV bool
}

// Valid reports whether the register currently holds a value.
func (r *Reg[T]) Valid() bool { return r.curV }

// Get returns the latched value (zero value when invalid).
func (r *Reg[T]) Get() (T, bool) { return r.cur, r.curV }

// Set schedules v to be latched at the next Commit.
func (r *Reg[T]) Set(v T) {
	r.next = v
	r.nextV = true
}

// Clear schedules the register to become invalid at the next Commit.
func (r *Reg[T]) Clear() {
	var zero T
	r.next = zero
	r.nextV = false
}

// NextValid reports whether a value has been scheduled this cycle. Useful
// for writers that must not double-write a register within one Eval.
func (r *Reg[T]) NextValid() bool { return r.nextV }

// Hold re-schedules the current value so a Commit keeps it. Writers use
// this when the register is stalled.
func (r *Reg[T]) Hold() {
	r.next = r.cur
	r.nextV = r.curV
}

// Tick latches the scheduled value. Call exactly once per cycle, from the
// owning component's Commit.
func (r *Reg[T]) Tick() {
	r.cur, r.curV = r.next, r.nextV
	var zero T
	r.next, r.nextV = zero, false
}

// Rand is a small, fast, deterministic xorshift64* PRNG. The L-NUCA
// transport and replacement networks pick output links "randomly"
// (Section III.B); a seeded generator keeps runs reproducible.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed (0 is remapped so the
// xorshift state never sticks at zero).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// RunAbove is `for n < max && r.Float64() > p { n++ }`: it consumes the
// same draws and returns n, but keeps the state in a register and
// compares integers (Float64 scales a 53-bit integer by a power of two,
// which is exact, so Float64() > p exactly when that integer exceeds
// floor(p * 2^53)). A geometric draw is one serial chain of these steps.
func (r *Rand) RunAbove(p float64, max int) int {
	limit := uint64(p * (1 << 53))
	x := r.state
	n := 0
	for n < max {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		if (x*0x2545F4914F6CDD1D)>>11 <= limit {
			break
		}
		n++
	}
	r.state = x
	return n
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork derives an independent generator whose stream is a deterministic
// function of the parent state and the label.
func (r *Rand) Fork(label uint64) *Rand {
	return NewRand(r.Uint64() ^ (label * 0x9E3779B97F4A7C15) ^ 0xD1B54A32D192ED03)
}

// Perm fills dst with a random permutation of [0, len(dst)).
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
