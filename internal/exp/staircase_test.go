package exp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hier"
	"repro/internal/workload"
)

// chase is the staircase's profile: half the ops are loads, each load's
// address depends on the load before it, and all of them fall in one
// region of kb KB (the other regions are never drawn).
func chase(kb int) workload.Profile {
	return workload.Profile{
		Name: fmt.Sprintf("chase-%dKB", kb), Class: workload.Int,
		LoadFrac: 0.5, PointerChase: 1,
		HotFrac: 1, HotKB: kb, WarmKB: 4, CoolKB: 4,
		BranchSites: 1,
	}
}

// TestLatencyStaircase checks the model against Table I from outside: a
// pointer chase whose footprint grows from inside the L1 to twice the
// last level, on the four Fig. 1 organizations. A chased load waits for
// the one before it, so cycles per load is the latency of the level the
// footprint fits in. Expected values come from hier.DefaultTableI alone:
//   - inside the L1 (half its capacity), a load costs the L1's Table I
//     latency on every kind, since the L1 and the r-tile are one array;
//   - up to half of each last level's capacity, no load reaches DRAM;
//   - per kind, cycles per load never fall as the footprint grows.
//
// Both comparisons allow slack: a window's edges cut a chain mid-load,
// which moves a plateau by a few thousandths of a cycle.
//
// The windows (10k + 20k instructions) are short, so the whole staircase
// runs in a few seconds.
func TestLatencyStaircase(t *testing.T) {
	tab := hier.DefaultTableI()
	// A hit's completion and bus cycles, and one cycle for each of the
	// request's and the response's port crossings.
	l1Cycles := float64(tab.L1.CompletionCycles + tab.L1.BusCycles + 2)
	l1KB := tab.L1.Bank.SizeBytes >> 10
	l3KB := tab.L3.Bank.SizeBytes >> 10
	dnKB := tab.DNUCA.Rows * tab.DNUCA.Cols * tab.DNUCA.Bank.SizeBytes >> 10
	footprints := []int{4, 16, 48, 256, 1024, 2048, 4096, 16384}
	mode := Mode{Name: "staircase", Warmup: 10_000, Measure: 20_000}
	const slack = 0.01 // cycles per load
	for _, c := range []struct {
		kind  hier.Kind
		llcKB int
	}{
		{hier.Conventional, l3KB},
		{hier.LNUCAL3, l3KB},
		{hier.DNUCAOnly, dnKB},
		{hier.LNUCADNUCA, dnKB},
	} {
		spec := Spec{Kind: c.kind, Levels: hier.DefaultLevels}
		t.Run(spec.Label(), func(t *testing.T) {
			prev := 0.0
			for _, kb := range footprints {
				r := RunOne(spec, chase(kb), mode, 1)
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				perLoad := float64(r.Cycles) / float64(r.Stats.Counter("core.loads"))
				dram := r.Stats.Counter("mem.reads")
				t.Logf("%6d KB: %7.3f cycles per load, %5d DRAM reads", kb, perLoad, dram)
				if kb <= l1KB/2 && math.Abs(perLoad-l1Cycles) > slack {
					t.Errorf("%d KB fits the %d KB L1: %.3f cycles per load, Table I's L1 is %g", kb, l1KB, perLoad, l1Cycles)
				}
				if kb <= c.llcKB/2 && dram != 0 {
					t.Errorf("%d KB fits the %d KB last level: %d DRAM reads, want 0", kb, c.llcKB, dram)
				}
				if perLoad < prev-slack {
					t.Errorf("%d KB: %.3f cycles per load, below the smaller footprint's %.3f", kb, perLoad, prev)
				}
				prev = perLoad
			}
		})
	}
}
