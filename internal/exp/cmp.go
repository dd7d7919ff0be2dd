package exp

// Multi-programmed CMP experiments: RunMixCtx is the mix counterpart of
// RunOneCtx — N cores, one benchmark each, private first levels over a
// shared LLC — reporting per-core IPC, aggregate throughput, and (via
// WeightedSpeedup) the standard multi-programmed metric against
// single-core baselines.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/hier"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MixSpec names one CMP configuration: a hierarchy kind applied to every
// core's private side, and one benchmark per core.
type MixSpec struct {
	Kind       hier.Kind
	Levels     int      // L-NUCA levels where applicable
	Benchmarks []string // one per core

	// Ungated / ShuffleRegistration mirror Spec's fields: result-neutral
	// kernel knobs the equivalence tests cross-product over.
	Ungated             bool
	ShuffleRegistration uint64
}

// Label renders the configuration name ("4x LN3-144KB").
func (m MixSpec) Label() string {
	return fmt.Sprintf("%dx %s", len(m.Benchmarks), Spec{Kind: m.Kind, Levels: m.Levels}.Label())
}

// CoreResult is one core's measured share of a mix run.
type CoreResult struct {
	Benchmark string  `json:"benchmark"`
	IPC       float64 `json:"ipc"`
	Committed uint64  `json:"committed"` // measured-window instructions
}

// MixResult is one multi-programmed measurement.
type MixResult struct {
	Spec    MixSpec
	Cycles  uint64 // measured-window length (shared clock)
	PerCore []CoreResult
	// Throughput is the aggregate instruction rate: the sum of per-core
	// IPCs over the shared measured window.
	Throughput float64
	Stats      *stats.Set
	// Phases is the run's wall-time and kernel-activity breakdown
	// (see Result.Phases).
	Phases *Phases
	Err    error
}

// RunMix is RunMixCtx without cancellation.
func RunMix(spec MixSpec, mode Mode, seed uint64) MixResult {
	return RunMixCtx(context.Background(), spec, mode, seed, nil)
}

// RunMixCtx executes one multi-programmed measurement: build the CMP,
// functionally prewarm every core's levels, advance until every core
// clears the warmup budget, then measure until every core clears the
// total budget. Cores that finish early keep running — they must keep
// contending for the shared LLC while slower cores measure, the standard
// multi-programmed methodology. The context is polled between chunks;
// progress (when non-nil) receives (committed, total) instruction counts
// summed over cores.
//
//lnuca:allow(determinism) Phases wall-time telemetry; stripped at Cache.Put so cached results stay byte-identical
func RunMixCtx(ctx context.Context, spec MixSpec, mode Mode, seed uint64, progress func(done, total uint64)) MixResult {
	res := MixResult{Spec: spec, Phases: &Phases{}}
	profs, err := profilesFor(spec.Benchmarks)
	if err != nil {
		res.Err = err
		return res
	}
	buildStart := time.Now()
	sys, err := hier.BuildCMP(spec.Kind, profs, hier.CMPOptions{
		LNUCALevels:         spec.Levels,
		Seed:                seed,
		ShuffleRegistration: spec.ShuffleRegistration,
		Ungated:             spec.Ungated,
	})
	res.Phases.BuildSeconds = time.Since(buildStart).Seconds()
	if err != nil {
		res.Err = err
		return res
	}
	kernelStart := sys.Kernel.Stats()
	warmupStart := time.Now()
	sys.Prewarm()

	n := uint64(len(profs))
	total := mode.Warmup + mode.Measure
	report := func() {
		if progress != nil {
			var done uint64
			for _, c := range sys.Cores {
				got := c.Committed
				if got > total {
					got = total
				}
				done += got
			}
			progress(done, n*total)
		}
	}
	// A stalled machine must fail loudly, not spin: with the slowest
	// catalog profiles under full contention IPC stays above ~1/50, so
	// this cap is two orders of magnitude of headroom.
	cycleCap := 1000*total + 1_000_000

	// advance runs chunks until every core commits at least target,
	// clamping near the boundary like RunOneCtx does.
	const chunk = 2048
	advance := func(target uint64) error {
		for sys.MinCommitted() < target {
			if err := ctx.Err(); err != nil {
				return err
			}
			if sys.Kernel.Cycle() > cycleCap {
				return fmt.Errorf("exp: mix %s stalled: min committed %d/%d after %d cycles",
					spec.Label(), sys.MinCommitted(), target, sys.Kernel.Cycle())
			}
			sys.Run(clampChunk(chunk, target-sys.MinCommitted(), sys.Cores[0].MaxCommitPerCycle()))
			report()
		}
		return nil
	}

	if err := advance(mode.Warmup); err != nil {
		res.Err = err
		return res
	}
	startStats := sys.Collect()
	startCycles := sys.Kernel.Cycle()
	res.Phases.WarmupSeconds = time.Since(warmupStart).Seconds()
	measureStart := time.Now()
	if err := advance(total); err != nil {
		res.Err = err
		return res
	}
	endStats := sys.Collect()

	res.Stats = stats.Delta(endStats, startStats)
	res.Cycles = sys.Kernel.Cycle() - startCycles
	res.PerCore = make([]CoreResult, len(profs))
	var committedAll uint64
	for i := range profs {
		committed := res.Stats.Counter(fmt.Sprintf("c%d.core.committed", i))
		committedAll += committed
		cr := CoreResult{Benchmark: spec.Benchmarks[i], Committed: committed}
		if res.Cycles > 0 {
			cr.IPC = float64(committed) / float64(res.Cycles)
		}
		res.PerCore[i] = cr
		res.Throughput += cr.IPC
	}
	res.Phases.fillMeasure(committedAll, time.Since(measureStart))
	res.Phases.fillKernel(sys.Kernel.Stats().Delta(kernelStart))
	return res
}

func profilesFor(names []string) ([]workload.Profile, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("exp: mix names no benchmarks")
	}
	out := make([]workload.Profile, len(names))
	for i, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("exp: unknown benchmark %q", n)
		}
		out[i] = p
	}
	return out, nil
}

// WeightedSpeedup is the Snavely-Tullsen multi-programmed metric:
// sum over cores of IPC_shared / IPC_alone. N equals perfect scaling;
// below N measures what contention for the shared LLC and the memory
// channel cost. baseline maps benchmark name to its single-core IPC
// under the same hierarchy, mode and seed.
func WeightedSpeedup(perCore []CoreResult, baseline map[string]float64) (float64, error) {
	var ws float64
	for _, c := range perCore {
		base, ok := baseline[c.Benchmark]
		if !ok || base <= 0 {
			return 0, fmt.Errorf("exp: no single-core baseline IPC for %q", c.Benchmark)
		}
		ws += c.IPC / base
	}
	return ws, nil
}

// MixTable renders a mix result as the per-core report the CLI and the
// walkthrough print.
func MixTable(r MixResult, baseline map[string]float64) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("CMP mix: %s [%s]", r.Spec.Label(), strings.Join(r.Spec.Benchmarks, ", ")),
		"core", "benchmark", "IPC", "alone IPC", "slowdown")
	for i, c := range r.PerCore {
		alone := baseline[c.Benchmark]
		slow := "-"
		aloneS := "-"
		if alone > 0 {
			aloneS = fmt.Sprintf("%.3f", alone)
			slow = fmt.Sprintf("%.3f", c.IPC/alone)
		}
		t.AddRow(fmt.Sprintf("c%d", i), c.Benchmark, fmt.Sprintf("%.3f", c.IPC), aloneS, slow)
	}
	return t
}
