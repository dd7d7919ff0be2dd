package hier

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// TestRunAheadMatchesGenerator: the run-ahead supply a core reads is the
// generator's own stream, op for op — for several profiles, in several
// cores' address spaces, unbounded and capped. 48 Ki ops cross five
// 8 Ki-op block boundaries; the capped supply's producer stops after
// 4 blocks (a 24 Ki-op budget plus slack, rounded up), so the last two
// blocks are the reader's own, read from the generator after the
// handoff.
func TestRunAheadMatchesGenerator(t *testing.T) {
	const ops = 6 * 8192
	for _, bench := range []string{"403.gcc", "429.mcf", "434.zeusmp", "482.sphinx3"} {
		prof, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("no profile %s", bench)
		}
		for core := 0; core < 4; core += 3 {
			for _, maxInstr := range []uint64{0, 3 * 8192} {
				seed := coreSeed(7, core)
				want, err := workload.NewGeneratorAt(prof, seed, CoreOffset(core))
				if err != nil {
					t.Fatal(err)
				}
				src, _ := workload.NewGeneratorAt(prof, seed, CoreOffset(core))
				ahead := cpu.RunAhead(src, maxInstr)
				for i := 0; i < ops; i++ {
					w, _ := want.Next()
					if g, _ := ahead.Next(); g != w {
						t.Fatalf("%s, core %d, budget %d: op %d is %+v, want %+v", bench, core, maxInstr, i, g, w)
					}
				}
				ahead.Close()
			}
		}
	}
}

// settled waits up to a second for the goroutine count to fall back to
// base and reports whether it did. gc collects garbage on every try, so
// that finalizers of dropped systems run.
func settled(base int, gc bool) bool {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if gc {
			runtime.GC()
		}
		if runtime.NumGoroutine() <= base {
			return true
		}
	}
	return false
}

// TestFailedBuildLeaksNoGoroutine: a build that fails after it has
// started a core's supply — the second core's profile is invalid —
// stops that supply before it returns.
func TestFailedBuildLeaksNoGoroutine(t *testing.T) {
	good, _ := workload.ByName("403.gcc")
	bad := good
	bad.BranchSites = 0
	base := runtime.NumGoroutine()
	if _, err := BuildCMP(Conventional, []workload.Profile{good, bad}, CMPOptions{}); err == nil {
		t.Fatal("a build with an invalid profile succeeded")
	}
	if !settled(base, false) {
		t.Errorf("%d goroutines after a failed build, want %d", runtime.NumGoroutine(), base)
	}
}

// TestDroppedSystemsLeakNoGoroutine: a system dropped without Close —
// as callers that build machines directly do — leaks no producer; the
// garbage collector stops it. Half the systems ran a little first.
func TestDroppedSystemsLeakNoGoroutine(t *testing.T) {
	prof, _ := workload.ByName("429.mcf")
	base := runtime.NumGoroutine()
	for i := 0; i < 64; i++ {
		s, err := Build(Kind(i%4), prof, Options{Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			s.Prewarm()
			s.Run(1000)
		}
	}
	if !settled(base, true) {
		t.Errorf("%d goroutines after dropping 64 systems and collecting, want %d", runtime.NumGoroutine(), base)
	}
}
