package hier

// The steady-state allocation pin. (Speed — ns per stepped cycle, per
// hierarchy — is lnucabench's sim.step_ns.* under -trace 1.)

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

func benchSystem(tb testing.TB, kind Kind) *System {
	tb.Helper()
	prof, ok := workload.ByName("429.mcf")
	if !ok {
		tb.Fatal("missing 429.mcf")
	}
	sys, err := Build(kind, prof, Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	sys.Prewarm()
	// Reach steady state: the growable queues (decode, store buffer,
	// response and injection queues) at their high-water marks.
	sys.Run(100_000)
	return sys
}

// TestSteadyStateAllocatesNothing pins the north star's "0 allocs/cycle"
// for each Fig. 1 hierarchy: 20 000 cycles of ungated Step and 20 000 of
// gated Run after warm-up make no heap allocation at all. Mallocs counts
// the whole process, so a window is retried when the runtime's own
// goroutines (GC workers, the scavenger's timer) allocate inside it;
// that noise only adds, and the simulator's count repeats exactly.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const cycles = 20_000
	mallocs := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, kind := range []Kind{Conventional, LNUCAL3, DNUCAOnly, LNUCADNUCA} {
		sys := benchSystem(t, kind)
		for _, path := range []struct {
			name string
			run  func()
		}{
			{"ungated Step", func() {
				for i := 0; i < cycles; i++ {
					sys.Kernel.Step()
				}
			}},
			{"gated Run", func() { sys.Run(cycles) }},
		} {
			least := ^uint64(0)
			for window := 0; window < 3 && least != 0; window++ {
				if n := mallocs(path.run); n < least {
					least = n
				}
			}
			if least != 0 {
				t.Errorf("%v, %s: %d allocations in %d steady-state cycles, want 0", kind, path.name, least, cycles)
			}
		}
	}
}
