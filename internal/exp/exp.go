// Package exp is the experiment harness: it runs benchmark x configuration
// matrices and regenerates every table and figure of the paper's
// evaluation (Tables II and III, Figures 4 and 5), in the same units the
// paper reports.
package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/hier"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Mode scales simulation length. The paper simulates 100M instructions
// after 200M of warmup per benchmark; scaled-down windows preserve the
// shape on the synthetic workloads.
type Mode struct {
	Name    string `json:"name"`
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
}

// Quick is the test/bench default.
var Quick = Mode{Name: "quick", Warmup: 4_000, Measure: 20_000}

// Full is the CLI default for reproducing the figures.
var Full = Mode{Name: "full", Warmup: 40_000, Measure: 200_000}

// Spec names one simulation configuration.
type Spec struct {
	Kind    hier.Kind
	Levels  int          // L-NUCA levels where applicable
	Machine hier.Machine // Table I rows overridden; zero is Table I

	// Ungated forces plain lockstep stepping (no quiescence
	// fast-forward) and ShuffleRegistration permutes kernel registration
	// order. Neither changes results — the gating-equivalence tests pin
	// bit-identical statistics across the whole cross-product — so
	// neither is part of a job's content identity.
	Ungated             bool
	ShuffleRegistration uint64
}

// Label renders the paper's name for the configuration, and any machine
// rows it overrides ("LN3-144KB {ln.tile_kb=4}").
func (s Spec) Label() string {
	if s.Machine != "" {
		return fmt.Sprintf("%s {%s}", hier.Label(s.Kind, s.Levels), s.Machine)
	}
	return hier.Label(s.Kind, s.Levels)
}

// Result is one benchmark x configuration measurement.
type Result struct {
	Spec   Spec
	Bench  workload.Profile
	IPC    float64
	Cycles uint64
	Stats  *stats.Set
	Energy power.Breakdown
	// Phases is the run's wall-time and kernel-activity breakdown. It
	// describes this execution, not the experiment (cached replays of
	// the same job carry no Phases), so it is excluded from result
	// identity and from the result cache.
	Phases *Phases
	Err    error
}

// RunOne executes a single measurement: build, functional prewarm, timed
// warmup window, then the measured window (delta statistics).
func RunOne(spec Spec, prof workload.Profile, mode Mode, seed uint64) Result {
	return RunOneCtx(context.Background(), spec, prof, mode, seed, nil)
}

// RunOneCtx is the reusable single-run primitive behind RunOne, the table
// generators and the orchestration service. The context is polled between
// simulation chunks so a long run can be cancelled mid-flight; progress
// (when non-nil) receives (committed, total) instruction counts as the
// run advances. A cancelled run returns ctx.Err() in Result.Err.
func RunOneCtx(ctx context.Context, spec Spec, prof workload.Profile, mode Mode, seed uint64, progress func(done, total uint64)) Result {
	res, _ := runOne(ctx, spec, prof, mode, seed, nil, progress)
	return res
}

// runOne is the single-core measurement shared by live, recording and
// replay runs: it measures the system the spec describes and converts
// the window into a Result. stream, when non-nil, replaces the synthetic
// generator (recording, replay). The system is returned for what a
// caller still needs of it (nil when the build failed).
func runOne(ctx context.Context, spec Spec, prof workload.Profile, mode Mode, seed uint64, stream cpu.Stream, progress func(done, total uint64)) (Result, *hier.System) {
	res := Result{Spec: spec, Bench: prof}
	w, err := measure(ctx, func() (*hier.System, error) {
		return hier.Build(spec.Kind, prof, hier.Options{
			LNUCALevels:         spec.Levels,
			Machine:             spec.Machine,
			Seed:                seed,
			MaxInstr:            mode.Warmup + mode.Measure,
			ShuffleRegistration: spec.ShuffleRegistration,
			Ungated:             spec.Ungated,
			Stream:              stream,
		})
	}, spec.Label()+" / "+prof.Name, mode, progress)
	res.Phases = w.phases
	if err != nil {
		res.Err = err
		return res, w.sys
	}
	res.Stats, res.Cycles = w.stats, w.cycles
	if res.Cycles > 0 {
		res.IPC = float64(res.Stats.Counter("core.committed")) / float64(res.Cycles)
	}
	res.Energy = w.sys.Energy(res.Stats, res.Cycles)
	return res, w.sys
}

// window is what measure hands back: the machine, the measured window's
// delta statistics, its length on the shared clock, and the run's Phases
// (filled as far as it got).
type window struct {
	sys    *hier.System
	stats  *stats.Set
	cycles uint64
	phases *Phases
}

// measure is the one measurement loop, shared by live, recording, replay
// and mix runs: build, functional prewarm, advance until every core
// clears the warmup budget, snapshot, advance until every core clears
// the total budget and has measured the window's budget to within a
// commit width (or the kernel stops: a single core at MaxInstr, a
// replayed trace at its end), then the delta. Cores of a mix that finish
// early keep running — they must keep contending for the shared LLC
// while slower cores measure, the standard multi-programmed methodology.
// The context is polled between chunks; progress (when non-nil) receives
// (committed, total) instruction counts summed over cores, each core's
// share clamped to its budget. label names the run in the stall errors.
// The machine is closed on every way out.
//
//lnuca:allow(determinism) Phases wall-time telemetry; stripped at Cache.Put so cached results stay byte-identical
func measure(ctx context.Context, build func() (*hier.System, error), label string, mode Mode, progress func(done, total uint64)) (window, error) {
	w := window{phases: &Phases{}}
	buildStart := time.Now()
	sys, err := build()
	w.phases.BuildSeconds = time.Since(buildStart).Seconds()
	if err != nil {
		return w, err
	}
	defer sys.Close()
	w.sys = sys
	kernelStart := sys.Kernel.Stats()
	warmupStart := time.Now()
	sys.Prewarm()

	total := mode.Warmup + mode.Measure
	report := func() {
		if progress != nil {
			var done uint64
			for _, c := range sys.Cores {
				done += min(c.Committed, total)
			}
			progress(done, uint64(len(sys.Cores))*total)
		}
	}
	// A stalled machine must fail loudly, not spin: the watchdog fails a
	// machine on which no core commits for stallCycles, and the cap one
	// that crawls — with the slowest catalog profiles under full
	// contention IPC stays above ~1/50, so it is two orders of magnitude
	// of headroom.
	cycleCap := 1000*total + 1_000_000
	var dog watchdog

	// advance runs chunks until committed() — the slowest core's count,
	// or one core's — reaches target. The final chunks are clamped to the
	// remaining budget so the measured window starts within a
	// commit-width of the boundary — a fixed-size final chunk would
	// overshoot by up to chunk-1 committed instructions and make the
	// window start a function of the chunk constant.
	const chunk = 2048
	advance := func(target uint64, committed func() uint64) error {
		for committed() < target && !sys.Kernel.Stopped() {
			if err := ctx.Err(); err != nil {
				return err
			}
			if idle, stalled := dog.check(committedSum(sys), sys.Kernel.Cycle()); stalled {
				committed := make([]uint64, len(sys.Cores))
				for i, c := range sys.Cores {
					committed[i] = c.Committed
				}
				return fmt.Errorf("exp: %s made no progress for %d cycles; committed per core %v", label, idle, committed)
			}
			if sys.Kernel.Cycle() > cycleCap {
				return fmt.Errorf("exp: %s stalled: min committed %d/%d after %d cycles",
					label, sys.MinCommitted(), target, sys.Kernel.Cycle())
			}
			sys.Run(clampChunk(chunk, target-committed(), sys.Core.MaxCommitPerCycle()))
			report()
		}
		return nil
	}

	if err := advance(mode.Warmup, sys.MinCommitted); err != nil {
		return w, err
	}
	startStats := sys.Collect()
	startCycles := sys.Kernel.Cycle()
	startCommitted := committedSum(sys)
	starts := make([]uint64, len(sys.Cores))
	for i, c := range sys.Cores {
		starts[i] = c.Committed
	}
	w.phases.WarmupSeconds = time.Since(warmupStart).Seconds()
	measureStart := time.Now()
	if err := advance(total, sys.MinCommitted); err != nil {
		return w, err
	}
	// A mix core that led at the snapshot and trails now runs on, too.
	for i, c := range sys.Cores {
		budget := mode.Measure - min(mode.Measure, uint64(c.MaxCommitPerCycle()))
		if err := advance(starts[i]+budget, func() uint64 { return c.Committed }); err != nil {
			return w, err
		}
	}
	w.stats = stats.Delta(sys.Collect(), startStats)
	w.cycles = sys.Kernel.Cycle() - startCycles
	w.phases.fillMeasure(committedSum(sys)-startCommitted, time.Since(measureStart))
	w.phases.fillKernel(sys.Kernel.Stats().Delta(kernelStart))
	return w, nil
}

// stallCycles is how long measure lets a machine go without a commit on
// any core before it fails the run: several hundred DRAM round trips.
const stallCycles = 100_000

// watchdog is measure's no-progress rule. It holds the committed total
// it last saw change and the cycle that happened at.
type watchdog struct{ committed, at uint64 }

// check records the machine's committed total at cycle now and returns
// how long the total has stood still, and whether that is stallCycles or
// more.
func (d *watchdog) check(committed, now uint64) (idle uint64, stalled bool) {
	if committed != d.committed {
		d.committed, d.at = committed, now
	}
	idle = now - d.at
	return idle, idle >= stallCycles
}

// committedSum totals committed instructions over the machine's cores.
func committedSum(sys *hier.System) uint64 {
	var sum uint64
	for _, c := range sys.Cores {
		sum += c.Committed
	}
	return sum
}

// clampChunk sizes a simulation chunk (in cycles) so that a core with
// remaining committed-instruction budget rem cannot overshoot a window
// boundary by more than commitWidth-1 instructions: a core retires at
// most commitWidth instructions per cycle, so rem/commitWidth cycles can
// never exceed the budget, and the 1-cycle floor keeps progress.
func clampChunk(chunk, rem uint64, commitWidth int) uint64 {
	if commitWidth < 1 {
		commitWidth = 1
	}
	bound := rem / uint64(commitWidth)
	if bound < 1 {
		bound = 1
	}
	if bound < chunk {
		return bound
	}
	return chunk
}

// byClass splits results for one spec into INT and FP IPC lists.
func byClass(results []Result, spec Spec) (intIPC, fpIPC []float64) {
	for _, r := range results {
		if r.Spec != spec || r.Err != nil {
			continue
		}
		if r.Bench.Class == workload.Int {
			intIPC = append(intIPC, r.IPC)
		} else {
			fpIPC = append(fpIPC, r.IPC)
		}
	}
	return
}

// HarmonicIPC returns the per-class harmonic mean IPC for a spec, the
// metric of Figures 4(a) and 5(a).
func HarmonicIPC(results []Result, spec Spec) (intHM, fpHM float64) {
	i, f := byClass(results, spec)
	return stats.HarmonicMean(i), stats.HarmonicMean(f)
}

// SumEnergy accumulates the suite-wide energy breakdown for a spec
// (the paper averages energies over all benchmarks; summing before
// normalizing is the same up to the constant factor).
func SumEnergy(results []Result, spec Spec) power.Breakdown {
	var total power.Breakdown
	for _, r := range results {
		if r.Spec != spec || r.Err != nil {
			continue
		}
		for b := power.Bucket(0); b < 4; b++ {
			total.Add(b, r.Energy.Get(b))
		}
	}
	return total
}
