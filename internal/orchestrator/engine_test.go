package orchestrator

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/obs/tracez"
)

// countSims arms ctx with a tracer and returns a counter of the
// simulations run under it: every run the engine executes leaves exactly
// one lnuca.run.measure span, cache hits and coalesced waits leave none.
func countSims(ctx context.Context) (context.Context, func() int) {
	var col tracez.Collector
	return tracez.WithTracer(ctx, tracez.New(&col)), func() int {
		n := 0
		for _, s := range col.Drain() {
			if s.Name == "lnuca.run.measure" {
				n++
			}
		}
		return n
	}
}

func tinyJob(t *testing.T, bench string) Job {
	t.Helper()
	j, err := Job{Kind: hier.Conventional, Benchmark: bench,
		Mode: exp.Mode{Name: "tiny", Warmup: 500, Measure: 3000}, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestEngineRunEndToEnd exercises the production RunFunc against the
// real simulator: progress climbing monotonically to the window total,
// cancellation, and the two configuration errors.
func TestEngineRunEndToEnd(t *testing.T) {
	e := NewEngine(NewCache(0, ""), nil)
	job := tinyJob(t, "403.gcc")

	var last uint64
	res, err := e.Run(context.Background(), job, func(done, total uint64) {
		if total != 3500 {
			t.Errorf("progress total = %d, want 3500", total)
		}
		if done < last {
			t.Errorf("progress went backwards: %d after %d", done, last)
		}
		last = done
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Cycles == 0 || res.Stats == nil {
		t.Fatalf("implausible result: %+v", res)
	}
	if last < 3500 {
		t.Errorf("progress stopped at %d of 3500", last)
	}

	// A pre-cancelled context must abort promptly with context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, job, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if _, _, err := e.Do(ctx, job, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do returned %v", err)
	}

	// Run takes the job as given, so a benchmark Normalize would have
	// rejected surfaces here.
	bogus := job
	bogus.Benchmark = "999.bogus"
	if _, err := e.Run(context.Background(), bogus, nil); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("unknown benchmark: %v", err)
	}

	// A trace job on an engine without a trace store is a configuration
	// error, not a panic.
	replay := Job{Kind: hier.Conventional, Trace: validTraceID()}
	if _, err := e.Run(context.Background(), replay, nil); err == nil || !strings.Contains(err.Error(), "no trace store") {
		t.Fatalf("trace job without a store: %v", err)
	}
}

// TestEngineDoGetOrSimulate: N concurrent Dos of one key cost one
// simulation — exactly one reports a fresh run, the rest (waiters and
// later callers alike) report cached and share its result.
func TestEngineDoGetOrSimulate(t *testing.T) {
	e := NewEngine(NewCache(0, ""), nil)
	job := tinyJob(t, "456.hmmer")
	ctx, sims := countSims(context.Background())

	const n = 4
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		fresh   int
		results []*JobResult
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, cached, err := e.Do(ctx, job, nil)
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if !cached {
				fresh++
			}
			results = append(results, res)
		}()
	}
	wg.Wait()
	if ran := sims(); fresh != 1 || ran != 1 {
		t.Fatalf("%d of %d concurrent Dos reported a fresh run over %d simulations, want exactly 1 of each", fresh, n, ran)
	}
	for _, r := range results {
		if r.IPC != results[0].IPC {
			t.Fatalf("coalesced Dos disagree: IPC %v vs %v", r.IPC, results[0].IPC)
		}
	}
	if _, cached, err := e.Do(ctx, job, nil); err != nil || !cached {
		t.Fatalf("rerun: cached=%v err=%v, want a cache hit", cached, err)
	}
}

// TestPoolAndBaselineShareOneFlight: a queued job and an in-process Do of
// the same key — what a mix's baseline resolution is — meet in the one
// engine. While the pool executes K, Do(K) waits for it and is served the
// published result; the run function is entered once.
func TestPoolAndBaselineShareOneFlight(t *testing.T) {
	var runs atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	o := New(Config{Workers: 1, Run: func(ctx context.Context, j Job, _ func(done, total uint64)) (*JobResult, error) {
		if runs.Add(1) == 1 {
			close(started)
		}
		<-release
		return stubResult(j), nil
	}})
	defer o.Close()

	job := tinyJob(t, "403.gcc")
	rec, err := o.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	type outcome struct {
		res    *JobResult
		served bool
		err    error
	}
	baseline := make(chan outcome, 1)
	go func() {
		res, served, err := o.engine.Do(context.Background(), job, nil)
		baseline <- outcome{res, served, err}
	}()
	// Submit's lookup was the first miss; Do's is the second. Past it, Do
	// can only find the key in flight, so the pool is released only then.
	for o.cache.Misses() < 2 {
		runtime.Gosched()
	}
	close(release)

	out := <-baseline
	if out.err != nil || !out.served || out.res.IPC != stubResult(job).IPC {
		t.Fatalf("Do = %+v, served=%v, err=%v; want the pool's result, served without simulating", out.res, out.served, out.err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("the run function was entered %d times for one key, want 1", n)
	}
	if got := waitDone(t, o, rec.ID); got.Status != StatusDone || got.Result.IPC != stubResult(job).IPC {
		t.Fatalf("pool job: %+v", got)
	}
}
