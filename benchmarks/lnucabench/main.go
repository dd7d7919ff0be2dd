// Command lnucabench is the repository's one benchmark: five workloads
// that between them load every layer, from the simulation kernel to the
// fleet-backed service, each reporting the same four end-to-end metrics
// and — in a separate, traced run — the per-layer numbers behind them.
// README.md beside this file defines every name; BENCHMARK.json at the
// repository root is the machine-readable contract.
//
//	go run ./benchmarks/lnucabench                      # all five, untraced
//	go run ./benchmarks/lnucabench -workload sweep_cold -seed 2
//	go run ./benchmarks/lnucabench -workload kernel_dnuca -trace 1
//	go run ./benchmarks/lnucabench -aa                  # A/A: the suite twice
//
// Each workload ends with one JSON line (correct, attempted, failed,
// metrics); the exit status is non-zero when any check failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/exp"
)

// outDir receives span logs and the run's scratch stores. It is
// git-ignored; scratch is removed when the run ends.
const outDir = "benchmarks/lnucabench/out"

// sizes are the constants of the load: windows, matrices and counts are
// the same on every commit, so parent and change always run identical
// settings. Only the package test substitutes smaller ones.
type sizes struct {
	conv, dnuca, mix, sweep exp.Mode

	probePoints int // cached points behind a kernel workload's warm submits
	probeBatch  int // warm submits after each kernel pass
	warmBatch   int // replies per sweep_warm batch
	setupReps   int // set-ups per sweep run; the median is reported
	tracedPairs int // untraced+traced repetitions of a traced sweep_cold

	microN     int    // iterations of each direct-call micro-section
	stepWarm   uint64 // cycles run before timing ungated Kernel.Step
	stepCycles uint64 // ungated steps timed
}

var referenceSizes = sizes{
	conv:        exp.Mode{Name: "bench", Warmup: 20_000, Measure: 100_000},
	dnuca:       exp.Mode{Name: "bench", Warmup: 8_000, Measure: 40_000},
	mix:         exp.Mode{Name: "bench", Warmup: 20_000, Measure: 100_000},
	sweep:       exp.Quick,
	probePoints: 8,
	probeBatch:  256,
	warmBatch:   256,
	setupReps:   3,
	tracedPairs: 3,
	microN:      200,
	stepWarm:    100_000,
	stepCycles:  20_000,
}

// env is what a workload runs with.
type env struct {
	ctx     context.Context
	seed    uint64
	seconds float64 // how long the timed part of an untraced run lasts
	sz      sizes
	workDir string   // scratch root for stores; removed by the caller
	spans   *spanLog // nil unless tracing
	nextDir int
}

// tempDir makes a fresh scratch directory inside the run's own.
func (e *env) tempDir() (string, error) {
	e.nextDir++
	dir := filepath.Join(e.workDir, fmt.Sprintf("d%04d", e.nextDir))
	return dir, os.MkdirAll(dir, 0o755)
}

// workloadDef is one named workload: why it exists (BENCHMARK.json
// records the same sentence) and how it runs untraced and traced.
type workloadDef struct {
	name   string
	why    string
	run    func(*env) (*report, error)
	traced func(*env) (*report, error)
}

// kernelWorkload is a workloadDef over the cells a constructor yields.
func kernelWorkload(name, why string, cells func(sizes) ([]kernelCell, error)) workloadDef {
	over := func(run func(*env, string, []kernelCell) (*report, error)) func(*env) (*report, error) {
		return func(e *env) (*report, error) {
			cs, err := cells(e.sz)
			if err != nil {
				return nil, err
			}
			return run(e, name, cs)
		}
	}
	return workloadDef{name: name, why: why, run: over(runKernel), traced: over(runKernelTraced)}
}

var workloads = []workloadDef{
	kernelWorkload("kernel_conv",
		"Fig. 4 set, 16 cells: sim, cpu, cache, lnuca and mem do all the work, dnuca and noc none; most cycles are whole-machine fast-forwards",
		func(sz sizes) ([]kernelCell, error) { return singleCells(exp.ConventionalSpecs(), sz.conv) }),
	kernelWorkload("kernel_dnuca",
		"Fig. 5 set, 16 cells: dnuca with its noc mesh is most of the host time, so bank and router changes show here and nowhere else",
		func(sz sizes) ([]kernelCell, error) { return singleCells(exp.DNUCASpecs(), sz.dnuca) }),
	kernelWorkload("cmp4_mix",
		"two 4-core mixes: same kernel, 14 components and an arbiter, few fast-forwards, so per-cycle gating cost carries it, not skips",
		func(sz sizes) ([]kernelCell, error) { return mixCells(sz.mix), nil }),
	{
		name:   "sweep_cold",
		why:    "32 cheap points through client, HTTP, orchestrator, fleet and 2 workers to a disk store: dispatch, lease, JSON and fsync cost show",
		run:    runSweepCold,
		traced: runSweepColdTraced,
	},
	{
		name:   "sweep_warm",
		why:    "the same 32 points already stored, one warm submit in flight: no cycle is simulated, so kernel changes must leave it flat",
		run:    runSweepWarm,
		traced: runSweepWarmTraced,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runOne runs one workload in a scratch directory of its own and
// prints its report.
func runOne(w workloadDef, seed uint64, seconds float64, trace bool, out io.Writer) (rep *report, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	// A request that is never answered must fail the run, not hang it.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	e := &env{ctx: ctx, seed: seed, seconds: seconds, sz: referenceSizes, workDir: work}
	defs, run := endToEnd, w.run
	if trace {
		defs, run, e.spans = perLayer, w.traced, newSpanLog()
	}
	if rep, err = run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if trace {
		if err := e.spans.write(filepath.Join(outDir, "trace_"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	return rep, rep.print(out, defs)
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all five)")
	seed := flag.Uint64("seed", 1, "seed of every generated input: each simulated instruction stream derives from it")
	seconds := flag.Float64("seconds", 15, "how long the timed part of an untraced run lasts")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span log instead of the end-to-end metrics")
	aa := flag.Bool("aa", false, "run the untraced suite twice and compare the two against the metrics' bounds")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "lnucabench: bad arguments; see -h")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "lnucabench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workloadDef{w}
	}
	if *aa {
		os.Exit(runAA(selected, *seed, *seconds, os.Stdout))
	}
	ok := true
	for _, w := range selected {
		rep, err := runOne(w, *seed, *seconds, *trace == 1, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lnucabench:", err)
			os.Exit(1)
		}
		ok = ok && rep.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

// runAA runs the untraced workloads twice back to back and prints, per
// (metric, workload), both values and the relative gap; the exit status
// is non-zero when a gap exceeds the metric's bound or a digest moved.
func runAA(selected []workloadDef, seed uint64, seconds float64, out io.Writer) int {
	var runs [2][]*report
	for i := range runs {
		for _, w := range selected {
			rep, err := runOne(w, seed, seconds, false, io.Discard)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lnucabench:", err)
				return 1
			}
			fmt.Fprintf(out, "# run %d %s done at %s\n", i+1, w.name, time.Now().Format(time.TimeOnly))
			runs[i] = append(runs[i], rep)
		}
	}
	status := 0
	fmt.Fprintf(out, "%-14s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "gap", "bound")
	for wi, a := range runs[0] {
		b := runs[1][wi]
		for _, d := range endToEnd {
			gap := aaGap(a.metrics[d.Name], b.metrics[d.Name])
			verdict := ""
			if gap > d.Bound {
				verdict, status = "  EXCEEDS BOUND", 1
			}
			fmt.Fprintf(out, "%-14s %-20s %14.6g %14.6g %7.2f%% %5.0f%%%s\n",
				a.workload, d.Name, a.metrics[d.Name], b.metrics[d.Name], 100*gap, 100*d.Bound, verdict)
		}
		if a.statsSHA256 != b.statsSHA256 || !a.correct() || !b.correct() {
			fmt.Fprintf(out, "%-14s stats_sha256 %s vs %s, failed %d and %d  MISMATCH\n",
				a.workload, a.statsSHA256, b.statsSHA256, a.failed, b.failed)
			status = 1
		} else {
			fmt.Fprintf(out, "%-14s stats_sha256 %s identical\n", a.workload, a.statsSHA256)
		}
	}
	return status
}

// aaGap is the distance between two runs of one commit as a share of
// the first: an A/A pair has no better side, so either sign counts.
func aaGap(first, second float64) float64 {
	if first == 0 {
		return 0
	}
	return math.Abs(second-first) / math.Abs(first)
}
