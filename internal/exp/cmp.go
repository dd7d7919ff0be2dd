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

	"repro/internal/hier"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MixSpec names one CMP configuration: a hierarchy kind applied to every
// core's private side, and one benchmark per core.
type MixSpec struct {
	Kind       hier.Kind
	Levels     int          // L-NUCA levels where applicable
	Machine    hier.Machine // Table I rows overridden; zero is Table I
	Benchmarks []string     // one per core

	// Ungated / ShuffleRegistration mirror Spec's fields: result-neutral
	// kernel knobs the equivalence tests cross-product over.
	Ungated             bool
	ShuffleRegistration uint64
}

// Label renders the configuration name ("4x LN3-144KB").
func (m MixSpec) Label() string {
	return fmt.Sprintf("%dx %s", len(m.Benchmarks), Spec{Kind: m.Kind, Levels: m.Levels, Machine: m.Machine}.Label())
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

// RunMixCtx executes one multi-programmed measurement through the
// shared loop (see measure): the CMP is built with one benchmark per
// core, and the window is read back per core. progress (when non-nil)
// receives (committed, total) instruction counts summed over cores.
func RunMixCtx(ctx context.Context, spec MixSpec, mode Mode, seed uint64, progress func(done, total uint64)) MixResult {
	res := MixResult{Spec: spec, Phases: &Phases{}}
	profs, err := profilesFor(spec.Benchmarks)
	if err != nil {
		res.Err = err
		return res
	}
	w, err := measure(ctx, func() (*hier.System, error) {
		return hier.BuildCMP(spec.Kind, profs, hier.CMPOptions{
			LNUCALevels:         spec.Levels,
			Machine:             spec.Machine,
			Seed:                seed,
			ShuffleRegistration: spec.ShuffleRegistration,
			Ungated:             spec.Ungated,
		})
	}, "mix "+spec.Label(), mode, progress)
	res.Phases = w.phases
	if err != nil {
		res.Err = err
		return res
	}
	res.Stats, res.Cycles = w.stats, w.cycles
	res.PerCore = make([]CoreResult, len(profs))
	for i := range profs {
		committed := res.Stats.Counter(fmt.Sprintf("c%d.core.committed", i))
		cr := CoreResult{Benchmark: spec.Benchmarks[i], Committed: committed}
		if res.Cycles > 0 {
			cr.IPC = float64(committed) / float64(res.Cycles)
		}
		res.PerCore[i] = cr
		res.Throughput += cr.IPC
	}
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

// MixTable renders a mix's per-core results as the report the CLI and the
// walkthrough print; config is the mix's label.
func MixTable(config string, perCore []CoreResult, baseline map[string]float64) *stats.Table {
	names := make([]string, len(perCore))
	for i, c := range perCore {
		names[i] = c.Benchmark
	}
	t := stats.NewTable(fmt.Sprintf("CMP mix: %s [%s]", config, strings.Join(names, ", ")),
		"core", "benchmark", "IPC", "alone IPC", "slowdown")
	for i, c := range perCore {
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
