// Example cmp_mix walks through the multi-programmed CMP mode end to
// end:
//
//  1. resolve a 4-core workload mix from the 28-benchmark catalog;
//  2. run it directly through exp.RunMix — twice — to show the
//     simulation is deterministic (identical per-core stats);
//  3. ask a Local runner for the single-core baselines and report
//     per-core slowdown, aggregate throughput and weighted speedup;
//  4. run the identical mix as one declarative lightnuca.Request
//     through the same runner — twice — and show the rerun (and the
//     baselines inside the mix run) are served 100% from the
//     content-addressed result cache.
//
// Run it with:
//
//	go run ./examples/cmp_mix [-cores 4] [-mix mixed] [-hier ln+l3]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"

	lightnuca "repro"
	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/workload"
)

func main() {
	cores := flag.Int("cores", 4, "number of cores (2..8)")
	mix := flag.String("mix", "mixed", "mix name, 'random', or comma list of benchmarks")
	hierFlag := flag.String("hier", "ln+l3", "per-core hierarchy: conventional, ln+l3, dn-4x8, ln+dn-4x8")
	seed := flag.Uint64("seed", 1, "simulation seed (also fixes 'random' draws)")
	flag.Parse()

	kind, err := hier.ParseKind(*hierFlag)
	if err != nil {
		fail("%v", err)
	}

	// 1. A mix spec resolves to one benchmark per core; "random" draws
	// are a pure function of (cores, seed), so they are reproducible and
	// cacheable.
	benchmarks, err := workload.ResolveMix(*mix, *cores, *seed)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("mix %q on %d cores resolves to: %s\n\n", *mix, *cores, strings.Join(benchmarks, ", "))

	// 2. Run the mix twice: per-core results must be bit-identical.
	spec := exp.MixSpec{Kind: kind, Levels: 3, Benchmarks: benchmarks}
	fmt.Printf("running %s twice (quick windows)...\n", spec.Label())
	r1 := exp.RunMix(spec, exp.Quick, *seed)
	if r1.Err != nil {
		fail("mix run: %v", r1.Err)
	}
	r2 := exp.RunMix(spec, exp.Quick, *seed)
	if r2.Err != nil {
		fail("mix rerun: %v", r2.Err)
	}
	if r1.Cycles != r2.Cycles || !reflect.DeepEqual(r1.PerCore, r2.PerCore) {
		fail("nondeterministic mix: %d/%d cycles", r1.Cycles, r2.Cycles)
	}
	fmt.Printf("deterministic: both runs took %d cycles with identical per-core stats\n\n", r1.Cycles)

	// 3. Single-core baselines give the contention picture. Each is an
	// ordinary single-core Request; a benchmark the mix repeats is a
	// cache hit the second time.
	ctx := context.Background()
	runner := &lightnuca.Local{}
	baseline := map[string]float64{}
	for _, b := range benchmarks {
		res, err := runner.Run(ctx, lightnuca.Request{Hierarchy: *hierFlag, Benchmark: b, Mode: "quick", Seed: *seed})
		if err != nil {
			fail("baseline %s: %v", b, err)
		}
		baseline[b] = res.IPC
	}
	fmt.Println(exp.MixTable(r1.Spec.Label(), r1.PerCore, baseline))
	ws, err := exp.WeightedSpeedup(r1.PerCore, baseline)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("aggregate throughput: %.3f IPC\n", r1.Throughput)
	fmt.Printf("weighted speedup:     %.3f of %d ideal — the gap is LLC + memory-channel contention\n\n", ws, *cores)

	// 4. The same mix as one declarative lnuca-run-v1 Request through
	// the public Runner API: the first run simulates the mix only (its
	// baselines are step 3's runs, memoized under their own single-core
	// content keys); the identical rerun is served from the
	// content-addressed cache without touching the simulator. Submitting
	// this Request to a lnucad service instead (lightnuca.NewClient)
	// yields the very same key, so the two share results.
	req := lightnuca.Request{Hierarchy: *hierFlag, Cores: *cores, Mix: *mix, Mode: "quick", Seed: *seed}
	res1, err := runner.Run(ctx, req)
	if err != nil {
		fail("runner: %v", err)
	}
	fmt.Printf("runner result: weighted speedup %.3f, throughput %.3f IPC (key %.12s...)\n",
		res1.WeightedSpeedup, res1.ThroughputIPC, res1.Key)

	res2, err := runner.Run(ctx, req)
	if err != nil {
		fail("rerun: %v", err)
	}
	if !res2.Cached {
		fail("resubmission was not served from the cache")
	}
	hits, _ := runner.CacheStats()
	fmt.Printf("identical resubmission: served from cache (no new simulation; %d cache hits)\n", hits)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cmp_mix: "+format+"\n", args...)
	os.Exit(1)
}
