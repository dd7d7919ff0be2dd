package hier

import (
	"fmt"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

func mixProfiles(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	out := make([]workload.Profile, len(names))
	for i, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %q", n)
		}
		out[i] = p
	}
	return out
}

// runCMP builds, prewarms and advances a CMP until every core commits at
// least target instructions (bounded by a generous cycle cap).
func runCMP(t *testing.T, kind Kind, profs []workload.Profile, opt CMPOptions, target uint64) *CMPSystem {
	t.Helper()
	sys, err := BuildCMP(kind, profs, opt)
	if err != nil {
		t.Fatal(err)
	}
	sys.Prewarm()
	cap := 400*target + 100_000
	for sys.MinCommitted() < target {
		if sys.Kernel.Cycle() > cap {
			t.Fatalf("%s: stalled at %d cycles, min committed %d/%d",
				sys.Kind, sys.Kernel.Cycle(), sys.MinCommitted(), target)
		}
		sys.Run(1024)
	}
	return sys
}

func TestCMPAllKindsMakeProgress(t *testing.T) {
	profs := mixProfiles(t, "403.gcc", "470.lbm")
	for _, kind := range []Kind{Conventional, LNUCAL3, DNUCAOnly, LNUCADNUCA} {
		sys := runCMP(t, kind, profs, CMPOptions{Seed: 1}, 4_000)
		set := sys.Collect()
		for i := range profs {
			if got := set.Counter(fmt.Sprintf("c%d.core.committed", i)); got < 4_000 {
				t.Errorf("%s: core %d committed %d", sys.Kind, i, got)
			}
		}
		// Both cores must actually reach the shared level.
		for i := range profs {
			if set.Counter(fmt.Sprintf("arb.grants.c%d", i)) == 0 {
				t.Errorf("%s: core %d never used the shared LLC", sys.Kind, i)
			}
		}
		if err := sys.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", sys.Kind, err)
		}
	}
}

// cmpSignature runs a 4-core mix and returns the full stats fingerprint.
func cmpSignature(t *testing.T, shuffle uint64) (*stats.Set, uint64) {
	profs := []workload.Profile{}
	for _, n := range []string{"403.gcc", "429.mcf", "470.lbm", "482.sphinx3"} {
		p, _ := workload.ByName(n)
		profs = append(profs, p)
	}
	sys, err := BuildCMP(LNUCAL3, profs, CMPOptions{Seed: 7, ShuffleRegistration: shuffle})
	if err != nil {
		t.Fatal(err)
	}
	sys.Prewarm()
	for sys.MinCommitted() < 3_000 {
		if sys.Kernel.Cycle() > 2_000_000 {
			t.Fatal("stalled")
		}
		sys.Run(1024)
	}
	// Land every variant on the same cycle so fingerprints are comparable.
	extra := 200_000 - sys.Kernel.Cycle()
	if extra > 0 {
		sys.Run(extra)
	}
	return sys.Collect(), sys.Kernel.Cycle()
}

// TestCMPDeterministicAcrossRegistrationOrders: a 4-core mix of distinct
// benchmarks must produce bit-identical statistics across repeated runs
// and across component registration orders (the two-phase kernel
// discipline extended over the arbiter and the shared LLC).
func TestCMPDeterministicAcrossRegistrationOrders(t *testing.T) {
	refSet, refCycle := cmpSignature(t, 0)
	for _, shuffle := range []uint64{0, 3, 99} {
		set, cycle := cmpSignature(t, shuffle)
		if cycle != refCycle {
			t.Fatalf("shuffle %d: %d cycles, want %d", shuffle, cycle, refCycle)
		}
		if got, want := set.String(), refSet.String(); got != want {
			t.Fatalf("shuffle %d: stats diverge from reference:\n got: %.400s\nwant: %.400s", shuffle, got, want)
		}
	}
}

// TestCMPCoresAreIsolated: same benchmark on both cores — disjoint
// address spaces mean each core warms and misses on its own data, so the
// shared-memory traffic is roughly doubled relative to one core.
func TestCMPCoresAreIsolated(t *testing.T) {
	prof, _ := workload.ByName("429.mcf")
	solo := runCMP(t, LNUCAL3, []workload.Profile{prof}, CMPOptions{Seed: 3}, 4_000)
	duo := runCMP(t, LNUCAL3, []workload.Profile{prof, prof}, CMPOptions{Seed: 3}, 4_000)

	soloReads := solo.Collect().Counter("mem.reads")
	duoReads := duo.Collect().Counter("mem.reads")
	if duoReads < soloReads+soloReads/2 {
		t.Fatalf("two isolated copies read %d blocks vs %d solo — address spaces overlap?", duoReads, soloReads)
	}
	// Distinct seeds per core: identical benchmarks must not run in
	// lockstep.
	c0 := duo.Cores[0].Committed
	c1 := duo.Cores[1].Committed
	if c0 == c1 && duo.Cores[0].LoadsIssued == duo.Cores[1].LoadsIssued {
		t.Fatalf("cores in lockstep: committed %d/%d", c0, c1)
	}
}

// TestCMPContentionSlowsCores: under a shared single-ported LLC, adding
// streaming neighbors must cost an LLC-heavy core cycles (IPC drops
// versus running the same core count at the same budget alone).
func TestCMPContentionSlowsCores(t *testing.T) {
	prof, _ := workload.ByName("429.mcf") // LLC-heavy pointer chaser
	solo := runCMP(t, Conventional, []workload.Profile{prof}, CMPOptions{Seed: 5}, 6_000)
	crowd := runCMP(t, Conventional,
		mixProfiles(t, "429.mcf", "470.lbm", "462.libquantum", "433.milc"),
		CMPOptions{Seed: 5}, 6_000)

	soloIPC := float64(solo.Cores[0].Committed) / float64(solo.Kernel.Cycle())
	crowdIPC := float64(crowd.Cores[0].Committed) / float64(crowd.Kernel.Cycle())
	if crowdIPC >= soloIPC {
		t.Fatalf("mcf IPC alone %.3f vs crowded %.3f — no contention modeled?", soloIPC, crowdIPC)
	}
	set := crowd.Collect()
	var conflicts uint64
	for i := 0; i < 4; i++ {
		conflicts += set.Counter(fmt.Sprintf("arb.conflicts.c%d", i))
	}
	if conflicts == 0 {
		t.Fatal("four streaming cores produced zero arbiter conflicts")
	}
}

func TestCMPRejectsBadConfigs(t *testing.T) {
	prof, _ := workload.ByName("403.gcc")
	if _, err := BuildCMP(LNUCAL3, nil, CMPOptions{}); err == nil {
		t.Fatal("0 cores accepted")
	}
	nine := make([]workload.Profile, 9)
	for i := range nine {
		nine[i] = prof
	}
	if _, err := BuildCMP(LNUCAL3, nine, CMPOptions{}); err == nil {
		t.Fatal("9 cores accepted")
	}
	if _, err := BuildCMP(LNUCAL3, []workload.Profile{prof}, CMPOptions{LNUCALevels: 9}); err == nil {
		t.Fatal("9 levels accepted")
	}
	// The single-core options are rejected, not ignored.
	if _, err := BuildCMP(LNUCAL3, []workload.Profile{prof}, CMPOptions{MaxInstr: 1000}); err == nil {
		t.Fatal("MaxInstr accepted")
	}
	gen, err := workload.NewGenerator(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildCMP(LNUCAL3, []workload.Profile{prof}, CMPOptions{Stream: gen}); err == nil {
		t.Fatal("Stream accepted")
	}
}

// TestOneMachineSeam pins what separates the two entry points of the one
// builder, for every kind: a Build machine has one core wired straight
// to the last level — no arbiter, Core is Cores[0], unprefixed
// statistics — and a BuildCMP machine of the same kind has the arbiter
// and "c<i>."-prefixed statistics. Both keep registration-shuffle
// equivalence through the shared builder.
func TestOneMachineSeam(t *testing.T) {
	profs := mixProfiles(t, "403.gcc", "470.lbm")
	has := func(set *stats.Set, prefix string) bool { return len(set.Sub(prefix).Names()) > 0 }
	for _, kind := range []Kind{Conventional, LNUCAL3, DNUCAOnly, LNUCADNUCA} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			ran := func(sys *System, err error) *System {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				sys.Prewarm()
				sys.Run(30_000)
				if sys.MinCommitted() == 0 {
					t.Fatalf("%s: a core committed nothing in 30k cycles", sys.Kind)
				}
				return sys
			}
			single := func(shuffle uint64) *System {
				return ran(Build(kind, profs[0], Options{Seed: 3, ShuffleRegistration: shuffle}))
			}
			duo := func(shuffle uint64) *System {
				return ran(BuildCMP(kind, profs, CMPOptions{Seed: 3, ShuffleRegistration: shuffle}))
			}

			s := single(0)
			if len(s.Cores) != 1 || s.Cores[0] != s.Core || s.Arb != nil {
				t.Fatalf("Build: %d cores, Arb %v, Core is Cores[0]: %v", len(s.Cores), s.Arb, s.Cores[0] == s.Core)
			}
			set := s.Collect()
			if has(set, "c0") || has(set, "arb") || set.Counter("core.committed") == 0 {
				t.Errorf("Build statistics must be unprefixed and arbiter-free:\n%s", set)
			}
			if got, want := single(11).Collect().String(), set.String(); got != want {
				t.Errorf("Build: shuffled registration changed the statistics")
			}

			d := duo(0)
			if len(d.Cores) != 2 || d.Cores[0] != d.Core || d.Arb == nil {
				t.Fatalf("BuildCMP: %d cores, Arb %v, Core is Cores[0]: %v", len(d.Cores), d.Arb, d.Cores[0] == d.Core)
			}
			set = d.Collect()
			if !has(set, "c0") || !has(set, "c1") || !has(set, "arb") || has(set, "core") {
				t.Errorf("BuildCMP statistics must be c<i>.-prefixed with arbiter counters:\n%s", set)
			}
			if got, want := duo(11).Collect().String(), set.String(); got != want {
				t.Errorf("BuildCMP: shuffled registration changed the statistics")
			}
		})
	}
}
