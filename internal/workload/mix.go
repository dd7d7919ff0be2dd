package workload

// Multi-programmed workload mixes for the CMP mode: a mix assigns one
// catalog benchmark to each core. Mixes come in three forms:
//
//   - named mixes ("int", "fp", "mixed", "memory", "compute"): curated
//     rotations over characteristic benchmark pools, so "mixed" on 4
//     cores is the same four benchmarks on every machine;
//   - "random": a seeded draw without replacement from the full
//     28-benchmark catalog — the draw is a pure function of (cores, seed),
//     which is what lets the orchestrator key cached results on the
//     resolved benchmark list;
//   - an explicit comma-separated benchmark list, one entry per core.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// mixPools are the curated named-mix rotations. Pool order is part of
// the mix definition: core i runs pool[i mod len(pool)].
var mixPools = map[string][]string{
	// The class rotations walk their sub-suite in catalog order.
	"int": nil, // filled from the catalog below
	"fp":  nil,
	// mixed alternates the two classes, int first.
	"mixed": nil,
	// memory stresses the shared LLC and the memory channel: pointer
	// chasers and streamers with large secondary working sets.
	"memory": {"429.mcf", "462.libquantum", "470.lbm", "471.omnetpp",
		"433.milc", "473.astar", "437.leslie3d", "450.soplex"},
	// compute is cache-resident and branch-heavy: near-zero LLC demand,
	// the low-contention contrast case.
	"compute": {"453.povray", "416.gamess", "444.namd", "456.hmmer",
		"464.h264ref", "465.tonto", "445.gobmk", "454.calculix"},
}

func init() {
	var ints, fps, mixed []string
	for _, p := range intSuite() {
		ints = append(ints, p.Name)
	}
	for _, p := range fpSuite() {
		fps = append(fps, p.Name)
	}
	n := len(ints)
	if len(fps) > n {
		n = len(fps)
	}
	for i := 0; i < n; i++ {
		mixed = append(mixed, ints[i%len(ints)], fps[i%len(fps)])
	}
	mixPools["int"] = ints
	mixPools["fp"] = fps
	mixPools["mixed"] = mixed
	for _, name := range MixNames() {
		for _, b := range mixPools[name] {
			if _, ok := ByName(b); !ok {
				panic(fmt.Sprintf("workload: mix %q names unknown benchmark %q", name, b))
			}
		}
	}
}

// MixNames lists the named mixes (excluding "random" and explicit lists).
func MixNames() []string {
	out := make([]string, 0, len(mixPools))
	for name := range mixPools {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RandomMixName is the mix spec that draws benchmarks by seed.
const RandomMixName = "random"

// ResolveMix expands a mix spec into one benchmark name per core. The
// result is fully determined by (spec, cores, seed); for every spec but
// "random" the seed is ignored. Explicit lists must name exactly cores
// benchmarks (repetition is allowed — a list is already explicit).
func ResolveMix(spec string, cores int, seed uint64) ([]string, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("workload: mix needs a positive core count, got %d", cores)
	}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		spec = "mixed"
	}
	if pool, ok := mixPools[spec]; ok {
		out := make([]string, cores)
		for i := range out {
			out[i] = pool[i%len(pool)]
		}
		return out, nil
	}
	if spec == RandomMixName {
		names := Names()
		perm := make([]int, len(names))
		// A dedicated label keeps the draw independent of how the seed is
		// used elsewhere in the run.
		sim.NewRand(seed).Fork(0xC3B5).Perm(perm)
		out := make([]string, cores)
		for i := range out {
			// Without replacement until the catalog is exhausted.
			out[i] = names[perm[i%len(perm)]]
		}
		return out, nil
	}
	if strings.Contains(spec, ",") || func() bool { _, ok := ByName(spec); return ok }() {
		parts := strings.Split(spec, ",")
		if len(parts) != cores {
			return nil, fmt.Errorf("workload: explicit mix names %d benchmarks for %d cores", len(parts), cores)
		}
		out := make([]string, cores)
		for i, p := range parts {
			name := strings.TrimSpace(p)
			if _, ok := ByName(name); !ok {
				return nil, fmt.Errorf("workload: unknown benchmark %q in mix", name)
			}
			out[i] = name
		}
		return out, nil
	}
	return nil, fmt.Errorf("workload: unknown mix %q (want one of %s, %s, or a comma-separated benchmark list)",
		spec, strings.Join(MixNames(), ", "), RandomMixName)
}
