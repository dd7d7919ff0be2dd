package hier

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dnuca"
	"repro/internal/lnuca"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Every component a machine is built from sleeps between its inputs. A
// type that stopped being sim.Wired would be evaluated every cycle and
// compute the same results, so only this line would notice.
var _ = []sim.Wired{
	(*cpu.Core)(nil), (*cache.Controller)(nil), (*lnuca.Fabric)(nil),
	(*dnuca.DNUCA)(nil), (*mem.Arbiter)(nil), (*mem.MainMemory)(nil),
}

// TestFastForwardEngages proves the quiescence protocol actually fires
// on every hierarchy: a memory-bound window must spend at least the
// floor share of its cycles fast-forwarded, not stepped. The share is a
// count of simulated cycles, so it repeats exactly on any host — it is
// what CI's old "gated >= 2x ungated" wall-clock ratio stood in for,
// without punishing a change that makes stepped cycles cheap. Floors
// were set a few points under the shares then measured (62.4, 66.0,
// 51.4, 61.2). A component that acted is evaluated once more before it
// sleeps, so each fast-forward starts a cycle after the last action: the
// shares read 60.6, 62.1, 49.9 and 55.1.
// (Bit-identity of the results is pinned separately by the exp-level
// equivalence tests.)
func TestFastForwardEngages(t *testing.T) {
	floorPct := map[Kind]float64{Conventional: 55, LNUCAL3: 60, DNUCAOnly: 45, LNUCADNUCA: 55}
	prof, ok := workload.ByName("429.mcf")
	if !ok {
		t.Fatal("missing 429.mcf")
	}
	for _, kind := range []Kind{Conventional, LNUCAL3, DNUCAOnly, LNUCADNUCA} {
		sys, err := Build(kind, prof, Options{Seed: 3, MaxInstr: 30_000})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sys.Prewarm()
		ran := sys.Run(2_000_000)
		k := sys.Kernel
		if k.SkippedCycles == 0 {
			t.Errorf("%s: ran %d cycles without a single fast-forwarded cycle", kind, ran)
		}
		if k.FastForwards == 0 {
			t.Errorf("%s: no bulk clock advance happened", kind)
		}
		pct := 100 * float64(k.SkippedCycles) / float64(ran)
		if pct < floorPct[kind] {
			t.Errorf("%s: %.1f%% of %d cycles fast-forwarded, floor %.0f%%", kind, pct, ran, floorPct[kind])
		}
		t.Logf("%s: %d cycles, %.1f%% fast-forwarded in %d jumps, %d idle Evals skipped",
			kind, ran, pct, k.FastForwards, k.EvalsSkipped)
	}
}
