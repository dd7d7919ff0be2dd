// Command lnucasweep runs the design-space ablations DESIGN.md calls out,
// each full-system over a subset of the benchmarks:
//
//	lnucasweep -ablate routing    random vs deterministic transport routing
//	lnucasweep -ablate buffers    link buffer depth 1/2/4
//	lnucasweep -ablate tilesize   2/4/8/16 KB tiles
//	lnucasweep -ablate levels     L-NUCA depth 2..6
//
// Each is one RunAll over Requests (a fabric ablation sets one row of the
// machine member) on one runner: -cache DIR shares lnucad's store, -server
// runs on lnucad and its fleet, -j bounds concurrent points. -cpuprofile /
// -memprofile write runtime/pprof profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	lightnuca "repro"
	"repro/internal/lnuca"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/profiling"
	"repro/internal/stats"
)

var benchNames = []string{"403.gcc", "429.mcf", "482.sphinx3", "434.zeusmp"}

func main() {
	ablate := flag.String("ablate", "levels", "routing|buffers|tilesize|levels")
	instr := flag.Uint64("instr", 30000, "instructions per run")
	server := flag.String("server", "", "lnucad address: run the sweep through the service (and its worker fleet) instead of in-process")
	cacheDir := flag.String("cache", "", "result cache directory shared with lnucad")
	jobs := flag.Int("j", 0, "max concurrent sweep points (0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Parse()

	if *version {
		fmt.Println("lnucasweep", obs.Build(), "key_schema", orchestrator.KeySchema)
		return
	}
	a, err := ablationNamed(*ablate)
	if err != nil {
		fail(err)
	}
	prof, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	var runner lightnuca.Runner = &lightnuca.Local{CacheDir: *cacheDir}
	if *server != "" {
		runner = lightnuca.NewClient(*server)
	}
	err = a.sweep(*instr, *jobs, runner)
	if perr := prof.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "lnucasweep: %v\n", err)
	os.Exit(1)
}

// ablation is one table: a row of label cells per request, gains against
// row base; fabric adds the L-NUCA's own measurements.
type ablation struct {
	title, gain, note string
	heads             []string
	cells             [][]interface{}
	reqs              []lightnuca.Request
	base              int
	fabric            bool
}

// fabricRows are the ablations that vary one machine row of LN3, with a
// label per value and values[paper] the paper's.
var fabricRows = map[string]struct {
	title, row, note string
	values           []float64
	labels           []string
	paper            int
}{
	"routing": {"transport routing", "ln.routing", "", []float64{0, 1}, []string{"random (paper)", "deterministic"}, 0},
	"buffers": {"link buffer depth", "ln.link_buf", "", []float64{1, 2, 4}, []string{"1 entry", "2 entries (paper)", "4 entries"}, 1},
	"tilesize": {"tile size", "ln.tile_kb", "* a 16KB tile does not meet the single-cycle constraint (lnucatopo -timing);\n  the sweep shows the capacity effect alone.",
		[]float64{2, 4, 8, 16}, []string{"2KB tiles", "4KB tiles", "8KB tiles (paper)", "16KB tiles*"}, 2},
}

func ablationNamed(name string) (ablation, error) {
	if name == "levels" { // the paper: "performance increments do not pay off beyond 4 levels"
		a := ablation{title: "L-NUCA levels (full system, subset of benchmarks)", gain: "gain % vs 2 levels", heads: []string{"levels", "capacity KB"}}
		for levels := 2; levels <= 6; levels++ {
			a.cells = append(a.cells, []interface{}{levels, lnuca.CapacityKB(levels)})
			a.reqs = append(a.reqs, lightnuca.Request{Hierarchy: "ln+l3", Levels: levels})
		}
		return a, nil
	}
	f, ok := fabricRows[name]
	if !ok {
		return ablation{}, fmt.Errorf("unknown -ablate %q", name)
	}
	a := ablation{title: f.title + " (full system, LN3, subset of benchmarks)", gain: "gain % vs paper",
		heads: []string{"variant"}, base: f.paper, fabric: true, note: f.note}
	for i, v := range f.values {
		a.cells = append(a.cells, []interface{}{f.labels[i]})
		a.reqs = append(a.reqs, lightnuca.Request{Hierarchy: "ln+l3", Levels: 3, Machine: map[string]float64{f.row: v}})
	}
	return a, nil
}

// sweep runs every row over the benchmarks as one RunAll, up to jobs
// points at a time, and prints per row the harmonic-mean IPC and its gain
// — for a fabric ablation also the mean transport ratio, the marked
// restarts and the mean latency of loads that went to memory.
func (a ablation) sweep(instr uint64, jobs int, runner lightnuca.Runner) error {
	var reqs []lightnuca.Request
	for _, r := range a.reqs {
		for _, name := range benchNames {
			r.Benchmark, r.Measure, r.Seed = name, instr, 1
			reqs = append(reqs, r)
		}
	}
	results, err := lightnuca.RunAll(context.Background(), runner, reqs, jobs)
	if err != nil {
		return err
	}
	n := len(benchNames)
	hmean := func(i int) float64 {
		var ipcs []float64
		for _, r := range results[i*n : (i+1)*n] {
			ipcs = append(ipcs, r.IPC)
		}
		return stats.HarmonicMean(ipcs)
	}
	heads := append(a.heads, "IPC hmean", a.gain)
	if a.fabric {
		heads = append(heads, "transport ratio", "marked restarts", "load latency")
	}
	t := stats.NewTable("ablation: "+a.title, heads...)
	for i, cells := range a.cells {
		row := append(cells, hmean(i), stats.SpeedupPercent(hmean(i), hmean(a.base)))
		if a.fabric {
			var ratios []float64
			var restarts, latSum, loads uint64
			for _, r := range results[i*n : (i+1)*n] {
				ratios = append(ratios, r.Stats.Scalar("ln.transport_ratio"))
				restarts += r.Stats.Counter("ln.marked_restarts")
				latSum, loads = latSum+r.LoadLatency.Sum(), loads+r.LoadLatency.Count()
			}
			row = append(row, stats.ArithmeticMean(ratios), restarts, float64(latSum)/float64(loads))
		}
		t.AddRowf(row...)
	}
	fmt.Println(t)
	if a.note != "" {
		fmt.Println(a.note)
	}
	if local, ok := runner.(*lightnuca.Local); ok {
		fmt.Println(local.CacheSummary())
	}
	return nil
}
