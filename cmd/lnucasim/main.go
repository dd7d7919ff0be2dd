// Command lnucasim regenerates the paper's evaluation: Tables I-III and
// Figures 4-5. Experiments are selected with -exp; -mode full uses the
// larger simulation windows.
//
// With -cores N (N > 1) it instead runs one multi-programmed CMP mix: N
// cores with private first levels (-hier selects which of the four
// Fig. 1 organizations) over the shared 8MB LLC, reporting per-core IPC,
// aggregate throughput, and weighted speedup against the single-core
// baselines.
//
// -exp digests prints the digest ledger instead: one line per stored
// result of both figure matrices and of every named mix on 4 cores of
// each hierarchy — config, benchmark or mix, and the sha256 of the
// <key>.json the store holds for it. testdata/digests_{quick,full}.txt
// are its committed output; a change that moves them bumps the job key's
// KeySchema.
//
// Capturing and replaying instruction traces is lnucatrace's job.
//
// Examples:
//
//	lnucasim -exp table2
//	lnucasim -exp fig4a,fig4b -mode full
//	lnucasim -exp all -benches 403.gcc,482.sphinx3
//	lnucasim -exp all -cache /tmp/lnuca-results   (a rerun simulates nothing)
//	lnucasim -exp digests -mode full | diff - cmd/lnucasim/testdata/digests_full.txt
//	lnucasim -cores 4 -mix mixed -hier ln+l3
//	lnucasim -cores 2 -mix 429.mcf,470.lbm -hier conventional -seed 3
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	lightnuca "repro"
	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/profiling"
	"repro/internal/workload"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma list of: table1,table2,table3,fig4a,fig4b,fig5a,fig5b,all; or digests, the stored-result ledger")
		modeFlag   = flag.String("mode", "quick", "quick or full simulation windows")
		benchFlag  = flag.String("benches", "", "comma list of benchmarks (default: the full 28-benchmark suite)")
		seedFlag   = flag.Uint64("seed", 1, "simulation seed")
		coresFlag  = flag.Int("cores", 0, "CMP mode: number of cores (2..8; 0 = single-core paper experiments)")
		mixFlag    = flag.String("mix", "mixed", "CMP workload mix: a named mix ("+strings.Join(workload.MixNames(), "|")+"), 'random', or a comma list of benchmarks")
		hierFlag   = flag.String("hier", "ln+l3", "CMP hierarchy: conventional, ln+l3, dn-4x8, or ln+dn-4x8")
		levelsFlag = flag.Int("levels", 3, "L-NUCA levels for CMP L-NUCA hierarchies (2..6)")
		cacheFlag  = flag.String("cache", "", "result cache directory shared with lnucad/lnucasweep")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		version    = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("lnucasim", obs.Build(), "key_schema", orchestrator.KeySchema)
		return
	}

	if *modeFlag != "quick" && *modeFlag != "full" {
		fatalf("unknown -mode %q (quick|full)", *modeFlag)
	}

	prof, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	// Stop collectors on the happy path; fatalf exits forfeit the
	// profiles, which is fine for flag-validation failures.
	defer func() {
		if err := prof.Stop(); err != nil {
			fatalf("%v", err)
		}
	}()

	// One runner for the whole invocation, whichever mode it runs in:
	// every simulation is a declarative lnuca-run-v1 Request through the
	// same engine and, with -cache, the same content-addressed store the
	// service and lnucasweep use — so this run's results are cache hits
	// for every other front-end, and theirs for this one. Ctrl-C cancels
	// the runs in flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	digests := want["digests"] && *coresFlag == 0
	// The ledger hashes what a store holds, so it always has one: the
	// -cache directory, or a scratch one removed on the way out.
	cacheDir, scratch := *cacheFlag, ""
	if digests && cacheDir == "" {
		if scratch, err = os.MkdirTemp("", "lnucasim-digests-"); err != nil {
			fatalf("%v", err)
		}
		cacheDir = scratch
	}
	runner := &lightnuca.Local{CacheDir: cacheDir}

	if *coresFlag > 0 {
		runCMPMix(ctx, runner, lightnuca.Request{
			Hierarchy: *hierFlag,
			Levels:    *levelsFlag,
			Cores:     *coresFlag,
			Mix:       *mixFlag,
			Mode:      *modeFlag,
			Seed:      *seedFlag,
		})
	} else {
		benches := workload.Suite()
		if *benchFlag != "" {
			benches = benches[:0]
			for _, name := range strings.Split(*benchFlag, ",") {
				p, ok := workload.ByName(strings.TrimSpace(name))
				if !ok {
					fatalf("unknown benchmark %q; known: %s", name, strings.Join(workload.Names(), ", "))
				}
				benches = append(benches, p)
			}
		}
		err := printExperiments(ctx, os.Stdout, runner, want, benches, *modeFlag, *seedFlag)
		if err == nil && digests {
			err = printDigests(ctx, os.Stdout, runner, cacheDir, benches, *modeFlag, *seedFlag)
		}
		if scratch != "" {
			os.RemoveAll(scratch)
		}
		if err != nil {
			fatalf("simulation failed: %v", err)
		}
	}
	if hits, misses := runner.CacheStats(); hits+misses > 0 {
		out := os.Stdout
		if digests {
			out = os.Stderr // the ledger's stdout is diffed against a committed file
		}
		fmt.Fprintln(out, runner.CacheSummary())
	}
}

// figureSet is one of the paper's two evaluation matrices: the specs its
// tables are labelled by, which also name the hierarchies of the Sweep
// that runs it (DESIGN.md's experiment index gives the whole body, as
// one could POST it to /v1/sweeps).
type figureSet struct {
	name  string
	specs []exp.Spec
}

var (
	fig4Set = figureSet{"conventional", exp.ConventionalSpecs()}
	fig5Set = figureSet{"D-NUCA", exp.DNUCASpecs()}
)

// requests is the set over benches as one Request per cell. Sweep.Expand
// yields hierarchy x levels x benchmark in the order of specs x benches,
// so request i is cell (i / len(benches), i % len(benches)).
func (s figureSet) requests(benches []workload.Profile, mode string, seed uint64) ([]lightnuca.Request, error) {
	sweep := lightnuca.Sweep{Levels: []int{2, 3, 4}, Mode: mode, Seed: seed}
	for _, spec := range s.specs {
		if h := spec.Kind.RequestName(); !slices.Contains(sweep.Hierarchies, h) {
			sweep.Hierarchies = append(sweep.Hierarchies, h)
		}
	}
	for _, b := range benches {
		sweep.Benchmarks = append(sweep.Benchmarks, b.Name)
	}
	return sweep.Expand()
}

// run executes the set over benches through the runner, every cell a
// get-or-simulate by content key, and hands the cells to the table
// generators.
func (s figureSet) run(ctx context.Context, w io.Writer, runner lightnuca.Runner, benches []workload.Profile, mode string, seed uint64) ([]exp.Result, error) {
	fmt.Fprintf(w, "running %s matrix (%d benchmarks x %d configs, %s mode)...\n",
		s.name, len(benches), len(s.specs), mode)
	reqs, err := s.requests(benches, mode, seed)
	if err != nil {
		return nil, err
	}
	runs, err := lightnuca.RunAll(ctx, runner, reqs, 0)
	if err != nil {
		return nil, err
	}
	cells := make([]exp.Result, len(runs))
	for i, r := range runs {
		cells[i] = exp.Result{
			Spec: s.specs[i/len(benches)], Bench: benches[i%len(benches)],
			IPC: r.IPC, Cycles: r.Cycles, Stats: r.Stats, Energy: r.Energy,
		}
	}
	return cells, nil
}

// printExperiments regenerates the tables and figures want names ("all"
// for every one), simulating each matrix it needs once.
func printExperiments(ctx context.Context, w io.Writer, runner lightnuca.Runner, want map[string]bool, benches []workload.Profile, mode string, seed uint64) error {
	all := want["all"]
	show := func(t fmt.Stringer, paper string) {
		fmt.Fprintln(w, t)
		fmt.Fprintln(w, "paper: "+paper)
		fmt.Fprintln(w)
	}
	if all || want["table1"] {
		fmt.Fprintln(w, hier.DefaultTableI().Render())
	}
	if all || want["table2"] {
		show(exp.Table2(), "L2-256KB 0.91 mm2; LN2 0.46 / LN3 0.86 / LN4 1.59 mm2; network 14.0/18.8/19.0%")
	}
	if all || want["fig4a"] || want["fig4b"] || want["table3"] {
		results, err := fig4Set.run(ctx, w, runner, benches, mode, seed)
		if err != nil {
			return err
		}
		if all || want["fig4a"] {
			show(exp.FigIPC("Fig 4(a): IPC harmonic mean, conventional hierarchies", fig4Set.specs, results),
				"LN2..LN4 gain 5.4-6.2% (int), 14.3-15.4% (fp) over L2-256KB")
		}
		if all || want["fig4b"] {
			show(exp.FigEnergy("Fig 4(b): total energy normalized to L2-256KB", fig4Set.specs, results),
				"savings 16.5% (LN2) .. 10.5% (LN4); L3 static dominates")
		}
		if all || want["table3"] {
			show(exp.Table3Render(exp.Table3(results)), "Le2 58.7/40.9% (int/fp), all-levels up to 88.6/87.7%; ratio <= 1.014")
		}
	}
	if all || want["fig5a"] || want["fig5b"] {
		results, err := fig5Set.run(ctx, w, runner, benches, mode, seed)
		if err != nil {
			return err
		}
		if all || want["fig5a"] {
			show(exp.FigIPC("Fig 5(a): IPC harmonic mean, D-NUCA hierarchies", fig5Set.specs, results),
				"LN2+DN gains 4.2% (int) / 6.8% (fp), roughly flat in levels")
		}
		if all || want["fig5b"] {
			show(exp.FigEnergy("Fig 5(b): total energy normalized to DN-4x8", fig5Set.specs, results),
				"savings 4.25% (LN2+DN) .. 0.2% (LN4+DN)")
		}
	}
	return nil
}

// mixHierarchies are the four Fig. 1 organizations the ledger runs every
// named mix on, 4 cores each.
var mixHierarchies = []string{"conventional", "ln+l3", "dn-4x8", "ln+dn-4x8"}

// printDigests writes the digest ledger: for each cell of the Fig. 4 and
// Fig. 5 matrices over benches, then of every named mix on 4 cores of each
// hierarchy, "config<TAB>benchmark-or-mix<TAB>sha256" of the <key>.json
// that dir, the runner's store, holds for it.
func printDigests(ctx context.Context, w io.Writer, runner lightnuca.Runner, dir string, benches []workload.Profile, mode string, seed uint64) error {
	var reqs []lightnuca.Request
	for _, s := range []figureSet{fig4Set, fig5Set} {
		cells, err := s.requests(benches, mode, seed)
		if err != nil {
			return err
		}
		reqs = append(reqs, cells...)
	}
	for _, h := range mixHierarchies {
		for _, mix := range workload.MixNames() {
			reqs = append(reqs, lightnuca.Request{Hierarchy: h, Cores: 4, Mix: mix, Mode: mode, Seed: seed})
		}
	}
	runs, err := lightnuca.RunAll(ctx, runner, reqs, 0)
	if err != nil {
		return err
	}
	for i, r := range runs {
		stored, err := os.ReadFile(filepath.Join(dir, r.Key+".json"))
		if err != nil {
			return err
		}
		name := r.Benchmark
		if reqs[i].Mix != "" {
			name = reqs[i].Mix
		}
		fmt.Fprintf(w, "%s\t%s\t%x\n", r.Config, name, sha256.Sum256(stored))
	}
	return nil
}

// runCMPMix executes one multi-programmed run described by the
// declarative request — the lnuca-run-v1 schema shared with the library
// and the lnucad HTTP API, so its content key and cached result are the
// same whichever front-end computes it — and prints the per-core report
// plus the multi-programmed aggregates. The single-core baselines the mix
// run resolved through the runner are read back as cache hits for the
// "alone IPC" column.
func runCMPMix(ctx context.Context, runner *lightnuca.Local, req lightnuca.Request) {
	nreq, err := req.Normalize()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("running %d-core %s mix %q (%s mode, seed %d)...\n",
		nreq.Cores, nreq.Hierarchy, nreq.Mix, nreq.Mode, nreq.Seed)
	res, err := runner.Run(ctx, req)
	if err != nil {
		fatalf("mix failed: %v", err)
	}

	baseline := make(map[string]float64, res.Cores)
	for _, c := range res.PerCore {
		if _, done := baseline[c.Benchmark]; done {
			continue
		}
		single := req
		single.Cores, single.Mix, single.Benchmark = 0, "", c.Benchmark
		b, err := runner.Run(ctx, single)
		if err != nil {
			fatalf("baseline %s: %v", c.Benchmark, err)
		}
		baseline[c.Benchmark] = b.IPC
	}

	fmt.Println(exp.MixTable(res.Config, res.PerCore, baseline))
	fmt.Printf("aggregate throughput: %.3f IPC over %d cycles\n", res.ThroughputIPC, res.Cycles)
	fmt.Printf("weighted speedup:     %.3f (of %d ideal)\n", res.WeightedSpeedup, res.Cores)
	var grants, conflicts uint64
	for i := 0; i < res.Cores; i++ {
		grants += res.Stats.Counter(fmt.Sprintf("arb.grants.c%d", i))
		conflicts += res.Stats.Counter(fmt.Sprintf("arb.conflicts.c%d", i))
	}
	fmt.Printf("shared-LLC arbiter:   %d grants, %d conflict cycles\n", grants, conflicts)
	fmt.Printf("content key:          %s\n", res.Key)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lnucasim: "+format+"\n", args...)
	os.Exit(1)
}
