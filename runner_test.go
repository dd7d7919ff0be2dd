package lightnuca_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	lightnuca "repro"
	"repro/internal/obs/tracez"
)

// holdUntilMiss returns an OnProgress hook that, on its first call —
// i.e. from inside a running simulation — fires started and then holds
// that simulation until another Run has missed the runner's cache, so
// the two provably overlap.
func holdUntilMiss(t *testing.T, local *lightnuca.Local, started chan<- struct{}) func(done, total uint64) {
	var once sync.Once
	return func(_, _ uint64) {
		once.Do(func() {
			_, before := local.CacheStats()
			close(started)
			deadline := time.Now().Add(10 * time.Second)
			for _, misses := local.CacheStats(); misses == before; _, misses = local.CacheStats() {
				if time.Now().After(deadline) {
					t.Error("no concurrent Run reached the cache")
					return
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestStaleStoreIsAMiss: a store written under an older job-key version
// is not served. Its file for conventional / 403.gcc / quick / seed 1 —
// named by that run's lnuca-job-v2 key and a valid result — is a miss,
// not an error, and it is left where it was.
func TestStaleStoreIsAMiss(t *testing.T) {
	const v2Key = "48935bf1d1b2baf8decb6842d930296ce3b75bd66e1341a12844b8f3805b5c92"
	dir := t.TempDir()
	stale := filepath.Join(dir, v2Key+".json")
	old := []byte(`{"config":"L2-256KB","benchmark":"403.gcc","ipc":1.5,"cycles":1000,"energy_pj":[1,2,3,4]}`)
	if err := os.WriteFile(stale, old, 0o644); err != nil {
		t.Fatal(err)
	}
	local := &lightnuca.Local{CacheDir: dir}
	res, err := local.Run(context.Background(), lightnuca.Request{Hierarchy: "conventional", Benchmark: "403.gcc", Mode: "quick", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || res.Key == v2Key || res.IPC == 1.5 {
		t.Fatalf("served the stale entry: cached=%v key %s IPC %v", res.Cached, res.Key, res.IPC)
	}
	if hits, _ := local.CacheStats(); hits != 0 {
		t.Fatalf("%d cache hits, want 0", hits)
	}
	if got, err := os.ReadFile(stale); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("stale entry not left in place: %q, %v", got, err)
	}
}

// TestLocalResultDetachedFromCache: a caller mutating the Stats or
// PerCore of a returned Result must not corrupt what the runner's cache
// serves on the next hit.
func TestLocalResultDetachedFromCache(t *testing.T) {
	local := &lightnuca.Local{}
	req := lightnuca.Request{
		Hierarchy: "conventional", Benchmark: "456.hmmer",
		Warmup: 500, Measure: 2000, Seed: 1,
	}
	ctx := context.Background()

	res1, err := local.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	orig := res1.Stats.Counter("core.committed")
	if orig == 0 {
		t.Fatal("no committed instructions recorded")
	}
	res1.Stats.Add("core.committed", 1_000_000)

	res2, err := local.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("second run missed the cache")
	}
	if got := res2.Stats.Counter("core.committed"); got != orig {
		t.Fatalf("cache served mutated stats: %d, want %d", got, orig)
	}
}

// TestLocalRunReportsPhases: a fresh run carries its execution
// breakdown, while a cache hit — which did not execute — carries none.
func TestLocalRunReportsPhases(t *testing.T) {
	local := &lightnuca.Local{}
	req := lightnuca.Request{
		Hierarchy: "ln+l3", Benchmark: "470.lbm",
		Warmup: 500, Measure: 2000, Seed: 1,
	}
	ctx := context.Background()

	res, err := local.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == nil {
		t.Fatal("fresh run reported no Phases")
	}
	if res.Phases.MIPS <= 0 || res.Phases.MeasureSeconds <= 0 || res.Phases.SteppedCycles == 0 {
		t.Errorf("phases = %+v, want positive throughput and stepped cycles", res.Phases)
	}

	hit, err := local.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second run missed the cache")
	}
	if hit.Phases != nil {
		t.Errorf("cache hit carries Phases %+v; execution detail must not be memoized", hit.Phases)
	}
}

// TestLocalCoalescesConcurrentRuns: identical concurrent Requests must
// collapse onto one simulation — exactly one Result comes back
// freshly simulated, the rest are served from the published entry.
func TestLocalCoalescesConcurrentRuns(t *testing.T) {
	local := &lightnuca.Local{}
	req := lightnuca.Request{
		Hierarchy: "conventional", Benchmark: "403.gcc",
		Warmup: 500, Measure: 3000, Seed: 2,
	}
	const n = 4
	results := make([]lightnuca.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = local.Run(context.Background(), req)
		}(i)
	}
	wg.Wait()

	simulated := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i].Key != results[0].Key {
			t.Fatalf("run %d keyed %s, run 0 keyed %s", i, results[i].Key, results[0].Key)
		}
		if results[i].IPC != results[0].IPC {
			t.Fatalf("run %d IPC %v != run 0 IPC %v", i, results[i].IPC, results[0].IPC)
		}
		if !results[i].Cached {
			simulated++
		}
	}
	if simulated != 1 {
		t.Fatalf("%d of %d concurrent identical runs simulated, want exactly 1", simulated, n)
	}
}

// TestLocalFailedWinnerLetsWaiterRetry: a Run that coalesced onto a
// simulation whose caller then gave up must not inherit the failure —
// nothing was published, so the waiter simulates for itself.
func TestLocalFailedWinnerLetsWaiterRetry(t *testing.T) {
	local := &lightnuca.Local{}
	started := make(chan struct{})
	local.OnProgress = holdUntilMiss(t, local, started)
	req := lightnuca.Request{
		Hierarchy: "conventional", Benchmark: "429.mcf",
		Warmup: 500, Measure: 3000, Seed: 3,
	}
	winnerCtx, giveUp := context.WithCancel(context.Background())
	defer giveUp()
	winnerErr := make(chan error, 1)
	go func() {
		_, err := local.Run(winnerCtx, req)
		winnerErr <- err
	}()
	<-started
	waiter := make(chan lightnuca.Result, 1)
	go func() {
		res, err := local.Run(context.Background(), req)
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- res
	}()
	// The hook releases the winner once the waiter has missed the cache;
	// the winner's next context poll then sees the cancellation.
	giveUp()
	if err := <-winnerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("winner returned %v, want context.Canceled", err)
	}
	if res := <-waiter; res.Cached || res.IPC <= 0 {
		t.Fatalf("waiter after a failed winner: cached=%v IPC=%v, want a fresh simulation", res.Cached, res.IPC)
	}
}

// TestLocalMixBaselineSharesTopLevelRun: a mix's baseline and a
// concurrent top-level Run of the same content key are one simulation.
// Every simulation leaves one lnuca.run.measure span, so the span count
// is the run count: the mix plus one run per distinct benchmark.
func TestLocalMixBaselineSharesTopLevelRun(t *testing.T) {
	local := &lightnuca.Local{}
	mix := lightnuca.Request{
		Hierarchy: "conventional", Cores: 2, Mix: "403.gcc,456.hmmer",
		Warmup: 500, Measure: 3000, Seed: 1,
	}
	single := mix
	single.Cores, single.Mix, single.Benchmark = 0, "", "403.gcc"

	// The first simulation progress reported past the mix's own budget
	// (2 cores x 3500) comes from inside its first baseline, 403.gcc.
	const mixUnits = 2 * 3500
	started := make(chan struct{})
	hold := holdUntilMiss(t, local, started)
	local.OnProgress = func(done, total uint64) {
		if done > mixUnits {
			hold(done, total)
		}
	}
	var col tracez.Collector
	ctx := tracez.WithTracer(context.Background(), tracez.New(&col))

	mixErr := make(chan error, 1)
	go func() {
		_, err := local.Run(ctx, mix)
		mixErr <- err
	}()
	<-started
	res, err := local.Run(ctx, single)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-mixErr; err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("top-level run simulated a key the mix's baseline was already simulating")
	}
	sims := 0
	for _, s := range col.Drain() {
		if s.Name == "lnuca.run.measure" {
			sims++
		}
	}
	if sims != 3 {
		t.Fatalf("%d simulations, want 3 (the mix + one per distinct benchmark)", sims)
	}
}
