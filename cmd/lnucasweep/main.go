// Command lnucasweep runs the design-space ablations DESIGN.md calls out:
// the L-NUCA choices the paper motivates but does not always quantify.
//
//	lnucasweep -ablate routing    random vs deterministic transport routing
//	lnucasweep -ablate buffers    link buffer depth 1/2/4
//	lnucasweep -ablate tilesize   2/4/8/16 KB tiles
//	lnucasweep -ablate levels     L-NUCA depth 2..6
//
// -cache DIR memoizes the full-system runs of -ablate levels in the same
// content-addressed store lnucad serves from, so repeated sweeps (and the
// service) never recompute a configuration already measured. One Local
// runner is shared across the whole invocation (whatever mix of ablations
// it runs), so its end-of-run cache statistics describe the sweep end to
// end. -j bounds how many independent sweep points simulate concurrently
// (default GOMAXPROCS); duplicate points still simulate once, coalesced
// by the shared runner.
//
// -cpuprofile / -memprofile write standard runtime/pprof profiles, so
// kernel performance work is measured rather than guessed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	lightnuca "repro"
	"repro/internal/lnuca"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/stats"
)

var benchNames = []string{"403.gcc", "429.mcf", "482.sphinx3", "434.zeusmp"}

func main() {
	ablate := flag.String("ablate", "levels", "routing|buffers|tilesize|levels")
	instr := flag.Uint64("instr", 30000, "instructions per run")
	server := flag.String("server", "", "lnucad address: run the levels sweep through the service (and its worker fleet) instead of in-process")
	cacheDir := flag.String("cache", "", "result cache directory shared with lnucad (levels sweep only)")
	jobs := flag.Int("j", 0, "max concurrent sweep points (levels sweep; 0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Parse()

	if *version {
		fmt.Println("lnucasweep", obs.Build())
		return
	}

	prof, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	// One runner for the whole invocation: every runner-backed sweep
	// shares its cache and coalescing, so nothing simulates twice and
	// the final cache statistics are meaningful end to end. With
	// -server the runner is the lnucad client — same lnuca-run-v1
	// requests, same content keys, execution on the service (or its
	// worker fleet) instead of in this process.
	var runner lightnuca.Runner
	if *server != "" {
		runner = lightnuca.NewClient(*server)
	} else {
		runner = &lightnuca.Local{CacheDir: *cacheDir}
	}

	err = runSweep(*ablate, *instr, *jobs, runner)
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

func runSweep(ablate string, instr uint64, jobs int, runner lightnuca.Runner) error {
	switch ablate {
	case "routing":
		return sweepFabric("transport routing", []fabricVariant{
			{"random (paper)", func(c *lnuca.Config) {}},
			{"deterministic", func(c *lnuca.Config) { c.DeterministicRouting = true }},
		}, instr)
	case "buffers":
		return sweepFabric("link buffer depth", []fabricVariant{
			{"1 entry", func(c *lnuca.Config) { c.LinkBufEntries = 1 }},
			{"2 entries (paper)", func(c *lnuca.Config) { c.LinkBufEntries = 2 }},
			{"4 entries", func(c *lnuca.Config) { c.LinkBufEntries = 4 }},
		}, instr)
	case "tilesize":
		if err := sweepFabric("tile size", []fabricVariant{
			{"2KB tiles", func(c *lnuca.Config) { c.TileBank.SizeBytes = 2 << 10 }},
			{"4KB tiles", func(c *lnuca.Config) { c.TileBank.SizeBytes = 4 << 10 }},
			{"8KB tiles (paper)", func(c *lnuca.Config) {}},
			{"16KB tiles*", func(c *lnuca.Config) { c.TileBank.SizeBytes = 16 << 10 }},
		}, instr); err != nil {
			return err
		}
		fmt.Println("* a 16KB tile does not meet the single-cycle constraint (lnucatopo -timing);")
		fmt.Println("  the sweep shows the capacity effect alone.")
		return nil
	case "levels":
		return sweepLevels(instr, jobs, runner)
	default:
		return fmt.Errorf("unknown -ablate %q", ablate)
	}
}

type fabricVariant struct {
	name  string
	tweak func(*lnuca.Config)
}

// sweepFabric compares fabric variants on raw fabric throughput: a
// synthetic requester drives the fabric directly so the ablation isolates
// the network, not the core.
func sweepFabric(title string, variants []fabricVariant, instr uint64) error {
	t := stats.NewTable("ablation: "+title,
		"variant", "avg hit latency", "transport ratio", "marked restarts", "hits served")
	for _, v := range variants {
		lat, ratio, restarts, hits, err := driveFabric(v.tweak, instr)
		if err != nil {
			return err
		}
		t.AddRowf(v.name, lat, ratio, fmt.Sprint(restarts), fmt.Sprint(hits))
	}
	fmt.Println(t)
	return nil
}

// driveFabric hammers a 3-level fabric with a hot tile working set to
// expose contention behaviour.
func driveFabric(tweak func(*lnuca.Config), ops uint64) (avgLat, ratio float64, restarts, hits uint64, err error) {
	cfg := lnuca.DefaultConfig(3)
	tweak(&cfg)
	up := mem.NewPort(16, 16)
	down := mem.NewPort(16, 16)
	var ids mem.IDSource
	f, err := lnuca.NewFabric(cfg, up, down, &ids)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	k := sim.NewKernel()
	k.MustRegister(f)
	drv := &driver{up: up, down: down, total: ops, rng: sim.NewRand(7), blockBytes: cfg.TileBank.BlockBytes}
	k.MustRegister(drv)

	// Pre-place a working set across the tiles.
	g := f.Geometry()
	for i := 0; i < g.NumTiles(); i++ {
		for j := 0; j < 64; j++ {
			f.TileBank(i).Fill(mem.Addr(0x100000+(i*64+j)*cfg.TileBank.BlockBytes), false)
		}
	}
	k.Run(uint64(ops) * 50)
	s := stats.NewSet()
	f.Collect("ln", s)
	var latSum uint64
	for _, c := range drv.lat {
		latSum += c
	}
	if drv.done > 0 {
		avgLat = float64(latSum) / float64(drv.done)
	}
	return avgLat, s.Scalar("ln.transport_ratio"), s.Counter("ln.marked_restarts"), drv.done, nil
}

// driver issues reads over the pre-placed working set and answers fabric
// misses instantly (a perfect next level), isolating fabric behaviour.
type driver struct {
	up, down   *mem.Port
	total      uint64
	rng        *sim.Rand
	blockBytes int

	issued, done uint64
	inflight     map[uint64]sim.Cycle
	lat          []uint64
}

func (d *driver) Name() string { return "driver" }

//lnuca:allow(hotalloc) synthetic ablation load driver; not part of a measured simulation
func (d *driver) Eval(k *sim.Kernel) {
	if d.inflight == nil {
		d.inflight = map[uint64]sim.Cycle{}
	}
	for {
		r, ok := d.up.Up.Pop()
		if !ok {
			break
		}
		if t0, ok := d.inflight[r.ID]; ok {
			d.lat = append(d.lat, uint64(k.Cycle()-t0))
			delete(d.inflight, r.ID)
			d.done++
		}
	}
	// Perfect next level: answer fabric fetches immediately.
	for {
		req, ok := d.down.Down.Pop()
		if !ok {
			break
		}
		if req.Kind == mem.Read && d.down.Up.CanPush() {
			d.down.Up.Push(mem.Resp{ID: req.ID, Addr: req.Addr})
		}
	}
	// Moderate, bursty demand: enough to expose contention without
	// drowning the fabric in retries.
	if len(d.inflight) < 8 && d.issued < d.total && d.up.Down.CanPush() && d.rng.Bool(0.6) {
		d.issued++
		addr := mem.Addr(0x100000 + (d.rng.Intn(27*64))*d.blockBytes)
		d.inflight[d.issued] = k.Cycle()
		d.up.Down.Push(mem.Req{ID: d.issued, Addr: addr, Kind: mem.Read, Issued: k.Cycle()})
	}
	if d.done >= d.total {
		k.Stop()
	}
}
func (d *driver) Commit(k *sim.Kernel) {
	d.up.Down.Tick()
	d.down.Up.Tick()
}

// sweepLevels runs full systems over 2..6 levels, reproducing the
// diminishing-returns claim ("performance increments do not pay off
// beyond 4 levels"). Each cell is a declarative lnuca-run-v1 Request
// built from the flags — the same schema the library and lnucad accept,
// keyed identically — and the whole matrix executes through RunAll over
// the one shared Local runner, up to -j points at a time; with -cache
// the content-addressed store persists on disk and is shared with
// lnucad.
func sweepLevels(instr uint64, jobs int, runner lightnuca.Runner) error {
	var reqs []lightnuca.Request
	for levels := 2; levels <= 6; levels++ {
		for _, name := range benchNames {
			reqs = append(reqs, lightnuca.Request{
				Hierarchy: "ln+l3",
				Levels:    levels,
				Benchmark: name,
				Measure:   instr,
				Seed:      1,
			})
		}
	}
	results, err := lightnuca.RunAll(context.Background(), runner, reqs, jobs)
	if err != nil {
		return err
	}

	t := stats.NewTable("ablation: L-NUCA levels (full system, subset of benchmarks)",
		"levels", "capacity KB", "IPC hmean", "gain % vs 2 levels")
	base := 0.0
	for i, levels := 0, 2; levels <= 6; levels++ {
		var ipcs []float64
		for range benchNames {
			ipcs = append(ipcs, results[i].IPC)
			i++
		}
		hm := stats.HarmonicMean(ipcs)
		if levels == 2 {
			base = hm
		}
		t.AddRowf(fmt.Sprint(levels), fmt.Sprint(lnuca.CapacityKB(levels)),
			hm, stats.SpeedupPercent(hm, base))
	}
	fmt.Println(t)
	if local, ok := runner.(*lightnuca.Local); ok {
		fmt.Println(local.CacheSummary())
	}
	return nil
}
