package exp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/hier"
	"repro/internal/workload"
)

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return p
}

func quadMix() MixSpec {
	return MixSpec{
		Kind:       hier.LNUCAL3,
		Levels:     3,
		Benchmarks: []string{"403.gcc", "429.mcf", "470.lbm", "482.sphinx3"},
	}
}

func TestRunMixProducesSaneResult(t *testing.T) {
	r := RunMix(quadMix(), Quick, 1)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.PerCore) != 4 {
		t.Fatalf("%d per-core results", len(r.PerCore))
	}
	var sum float64
	for i, c := range r.PerCore {
		if c.IPC <= 0.01 || c.IPC > 4 {
			t.Errorf("core %d (%s): IPC %v", i, c.Benchmark, c.IPC)
		}
		// Every core must cover at least its measured window (early
		// finishers keep running, so more is fine).
		if c.Committed < Quick.Measure-uint64(4) {
			t.Errorf("core %d measured only %d instructions", i, c.Committed)
		}
		sum += c.IPC
	}
	if r.Throughput != sum {
		t.Fatalf("throughput %v != IPC sum %v", r.Throughput, sum)
	}
	if r.Cycles == 0 || r.Stats == nil {
		t.Fatal("missing measurement")
	}
	// Contention statistics must be visible in the measured window.
	if r.Stats.Counter("arb.grants.c0") == 0 {
		t.Fatal("no arbiter grants recorded for core 0")
	}
}

// TestRunMixDeterministic: the acceptance bar — two identical runs give
// identical per-core stats, cycle for cycle.
func TestRunMixDeterministic(t *testing.T) {
	a := RunMix(quadMix(), Quick, 7)
	b := RunMix(quadMix(), Quick, 7)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles %d vs %d", a.Cycles, b.Cycles)
	}
	if !reflect.DeepEqual(a.PerCore, b.PerCore) {
		t.Fatalf("per-core results diverge:\n%v\n%v", a.PerCore, b.PerCore)
	}
	if a.Stats.String() != b.Stats.String() {
		t.Fatal("stats sets diverge")
	}
}

func TestRunMixCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := RunMixCtx(ctx, quadMix(), Quick, 1, nil)
	if r.Err == nil {
		t.Fatal("cancelled run reported success")
	}
}

func TestRunMixRejectsUnknownBenchmark(t *testing.T) {
	r := RunMix(MixSpec{Kind: hier.LNUCAL3, Benchmarks: []string{"nope"}}, Quick, 1)
	if r.Err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	r = RunMix(MixSpec{Kind: hier.LNUCAL3}, Quick, 1)
	if r.Err == nil {
		t.Fatal("empty mix accepted")
	}
}

func TestRunMixReportsProgress(t *testing.T) {
	var last, total uint64
	r := RunMixCtx(context.Background(), MixSpec{
		Kind:       hier.Conventional,
		Benchmarks: []string{"403.gcc", "456.hmmer"},
	}, Quick, 1, func(done, tot uint64) { last, total = done, tot })
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	wantTotal := 2 * (Quick.Warmup + Quick.Measure)
	if total != wantTotal {
		t.Fatalf("progress total %d, want %d", total, wantTotal)
	}
	if last != wantTotal {
		t.Fatalf("final progress %d, want %d", last, wantTotal)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	perCore := []CoreResult{
		{Benchmark: "a", IPC: 0.5},
		{Benchmark: "b", IPC: 1.0},
	}
	ws, err := WeightedSpeedup(perCore, map[string]float64{"a": 1.0, "b": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if ws != 1.0 {
		t.Fatalf("WS = %v, want 1.0", ws)
	}
	if _, err := WeightedSpeedup(perCore, map[string]float64{"a": 1.0}); err == nil {
		t.Fatal("missing baseline accepted")
	}
	if _, err := WeightedSpeedup(perCore, map[string]float64{"a": 1.0, "b": 0}); err == nil {
		t.Fatal("zero baseline accepted")
	}
}

// TestWarmupBoundaryClamped: the regression test for the warmup
// overshoot — the measured window must cover the nominal budget to
// within a commit-width, where the unclamped loop lost up to
// chunk*width-1 instructions to the warmup side.
func TestWarmupBoundaryClamped(t *testing.T) {
	for _, bench := range []string{"403.gcc", "470.lbm"} {
		r := RunOne(Spec{Kind: hier.Conventional}, mustProfile(t, bench), Quick, 1)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		got := r.Stats.Counter("core.committed")
		if got > Quick.Measure {
			t.Errorf("%s: measured %d > budget %d", bench, got, Quick.Measure)
		}
		if got < Quick.Measure-4 {
			t.Errorf("%s: measured %d, warmup overshoot ate %d instructions of the %d budget",
				bench, got, Quick.Measure-got, Quick.Measure)
		}
	}
}

func TestClampChunk(t *testing.T) {
	cases := []struct {
		chunk, rem uint64
		width      int
		want       uint64
	}{
		{2048, 100_000, 4, 2048}, // far from the boundary: full chunk
		{2048, 8192, 4, 2048},    // exactly chunk*width away
		{2048, 8191, 4, 2047},
		{2048, 40, 4, 10},
		{2048, 3, 4, 1}, // floor: always make progress
		{2048, 0, 4, 1},
		{2048, 100, 0, 100}, // degenerate width treated as 1
	}
	for _, c := range cases {
		if got := clampChunk(c.chunk, c.rem, c.width); got != c.want {
			t.Errorf("clampChunk(%d, %d, %d) = %d, want %d", c.chunk, c.rem, c.width, got, c.want)
		}
	}
}
