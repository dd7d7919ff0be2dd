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

import "fmt"

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
//   - NextEvent(now) returns idle=true only if, absent any new input on
//     the component's inbound channels, Eval at every cycle in
//     [now, wake) would change NOTHING except the purely arithmetic
//     per-cycle bookkeeping that SkipTo replicates (cycle counters,
//     stall counters). wake may be conservatively early — Eval at wake
//     runs normally — but never late. Never means "only external input
//     wakes me".
//   - NextEvent must not mutate any state that affects simulation
//     results (in particular it must not draw from seeded RNGs).
//   - SkipTo(now, target) applies exactly the bookkeeping that
//     target-now idle Evals would have applied. The kernel calls it
//     only immediately after a NextEvent poll in which this component
//     reported idle: for multi-cycle skips every component was idle
//     (nothing pushes, so nothing new becomes visible); for a
//     single-cycle Eval skip on a partially-active cycle, the premise
//     holds because pushes stage until Commit — no input becomes
//     visible mid-cycle.
//
// Because two-phase channels publish pushes only at Commit, a component
// that is idle at the start of a cycle cannot receive mid-cycle input;
// all-idle rounds are therefore sound to skip, and gated and ungated
// runs produce bit-identical statistics.
type Quiescent interface {
	Component
	NextEvent(now Cycle) (wake Cycle, idle bool)
	SkipTo(now, target Cycle)
}

// Kernel owns the clock and the component list.
type Kernel struct {
	cycle      Cycle
	components []Component
	quiescent  []Quiescent
	names      map[string]bool
	stopped    bool
	gating     bool

	// idle is the per-poll active-set scratch, reused across cycles.
	idle []bool

	// FastForwards counts bulk clock advances; SkippedCycles counts the
	// cycles they covered (cycles never Stepped); EvalsSkipped counts
	// single-component Eval skips on partially-active cycles. Exposed
	// for tests and the MIPS benchmarks.
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
	k.components = append(k.components, c)
	if q, ok := c.(Quiescent); ok {
		k.quiescent = append(k.quiescent, q)
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
// Quiescent, Run polls the machine before each cycle and keeps an
// active set:
//
//   - all idle with a known earliest wake → the clock bulk-advances to
//     that wake (clamped to the cycle budget) instead of spinning no-op
//     Steps;
//   - some active → only the active components Eval; idle ones apply
//     their one-cycle arithmetic bookkeeping (SkipTo) and skip the
//     no-op Eval. Every component still Commits, which keeps the
//     two-phase channel state (startLen refresh after consumer pops)
//     exactly as a full Step would.
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
	if !k.gating || len(k.quiescent) != len(k.components) || len(k.components) == 0 {
		for !k.stopped && k.cycle < limit {
			k.Step()
		}
		return k.cycle - start
	}
	if cap(k.idle) < len(k.quiescent) {
		//lnuca:allow(hotalloc) one-time lazy scratch allocation; reused by every subsequent Run
		k.idle = make([]bool, len(k.quiescent))
	}
	idle := k.idle[:len(k.quiescent)]
	for !k.stopped && k.cycle < limit {
		now := k.cycle
		allIdle := true
		wake := Never
		for i, q := range k.quiescent {
			w, ok := q.NextEvent(now)
			idle[i] = ok
			if !ok {
				allIdle = false
			} else if w < wake {
				wake = w
			}
		}
		if allIdle && wake > now && wake != Never {
			// Fast-forward: skip [now, wake) entirely.
			if wake > limit {
				wake = limit
			}
			for _, q := range k.quiescent {
				q.SkipTo(now, wake)
			}
			k.cycle = wake
			k.FastForwards++
			k.SkippedCycles += wake - now
			continue
		}
		// Partial step: Eval the active set, advance the rest by one
		// arithmetic cycle, Commit everyone.
		active := 0
		for i, q := range k.quiescent {
			if idle[i] {
				q.SkipTo(now, now+1)
				k.EvalsSkipped++
			} else {
				q.Eval(k)
				active++
			}
		}
		for _, c := range k.components {
			c.Commit(k)
		}
		k.cycle++
		k.SteppedCycles++
		k.ActiveEvals += uint64(active)
	}
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
	// EvalsSkipped counts single-component Eval skips on
	// partially-active cycles.
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
