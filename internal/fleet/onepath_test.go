package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
)

// TestWorkerServesLeasedKeyFromItsCache: a worker's default RunFunc is
// get-or-simulate over its own cache, so a leased key the cache already
// holds completes with the stored result — which a simulation could not
// have produced, and which carries no Phases — without a run.
func TestWorkerServesLeasedKeyFromItsCache(t *testing.T) {
	coord := NewCoordinator(Config{LeaseTTL: time.Second})
	defer coord.Close()
	orch := orchestrator.New(orchestrator.Config{Workers: 1, Run: coord.Dispatch})
	defer orch.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	job, err := quickJob("403.gcc").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	stored := stubResult(job)
	stored.IPC = 0.0625
	cache := orchestrator.NewCache(0, "")
	cache.Put(job.Key(), stored)

	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Cache: cache, PollInterval: time.Millisecond})
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); _ = w.Run(ctx) }()
	defer done.Wait()
	defer cancel()

	rec, err := orch.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, orch, rec.ID)
	if got.Status != orchestrator.StatusDone || got.Result.IPC != stored.IPC || got.Result.Cycles != stored.Cycles {
		t.Fatalf("job = %s %+v, want the worker's stored result %+v", got.Status, got.Result, stored)
	}
	if got.Result.Phases != nil {
		t.Fatalf("a result served from the worker's cache carries Phases %+v: something ran", got.Result.Phases)
	}
	if hits, misses := cache.Hits(), cache.Misses(); hits != 1 || misses != 0 {
		t.Fatalf("worker cache: %d hits, %d misses, want 1 and 0", hits, misses)
	}
}

// gaugeValue reads one unlabeled sample from the registry's Prometheus
// rendering.
func gaugeValue(t *testing.T, reg *obs.Registry, name string) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("%s not in scrape", name)
	return ""
}

// TestLeaseOrderAndBackoffOneList pins the order the coordinator's one
// waiting list is leased in — the order the heap it replaces gave:
// priority first, dispatch order within a priority, a requeued job
// skipped until its backoff has passed and then back in its place — and
// that a canceled Dispatch leaves nothing behind. The pending gauge is
// the list's length throughout.
func TestLeaseOrderAndBackoffOneList(t *testing.T) {
	reg := obs.NewRegistry()
	coord := NewCoordinator(Config{
		LeaseTTL:       time.Minute,
		RetryBaseDelay: time.Hour, // a requeued job becomes ready only when the test says so
		RetryMaxDelay:  time.Hour,
		Registry:       reg,
	})
	defer coord.Close()
	pending := func(want string) {
		t.Helper()
		if got := gaugeValue(t, reg, "lnuca_fleet_jobs_pending"); got != want {
			t.Fatalf("lnuca_fleet_jobs_pending = %s, want %s", got, want)
		}
	}

	ctx, cancelAll := context.WithCancel(context.Background())
	var dispatches sync.WaitGroup
	defer dispatches.Wait()
	defer cancelAll()
	// dispatch blocks a goroutine in Dispatch and returns once the job is
	// on the list, so list order is call order.
	dispatch := func(ctx context.Context, bench string, priority int) string {
		t.Helper()
		j := quickJob(bench)
		j.Priority = priority
		nj, err := j.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		coord.mu.Lock()
		before := len(coord.waiting)
		coord.mu.Unlock()
		dispatches.Add(1)
		go func() {
			defer dispatches.Done()
			_, _ = coord.Dispatch(ctx, nj, nil)
		}()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			coord.mu.Lock()
			n := len(coord.waiting)
			coord.mu.Unlock()
			if n > before {
				return nj.Key()
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached the waiting list", bench)
			}
		}
	}
	lease := func(wantKey string, wantAttempt int) *LeaseResponse {
		t.Helper()
		l := coord.Lease("w")
		if l == nil || l.Key != wantKey || l.Attempt != wantAttempt {
			t.Fatalf("lease = %+v, want key %s attempt %d", l, wantKey, wantAttempt)
		}
		return l
	}

	lowFirst := dispatch(ctx, "403.gcc", 0)
	highFirst := dispatch(ctx, "429.mcf", 5)
	highSecond := dispatch(ctx, "434.zeusmp", 5)
	lastCtx, cancelLast := context.WithCancel(ctx)
	lowLast := dispatch(lastCtx, "482.sphinx3", 0)
	pending("4")

	// Priority, then dispatch order.
	l := lease(highFirst, 1)
	pending("3")
	// A retryable failure puts the job back on the same list behind its
	// backoff: the lower-priority jobs are leased past it.
	if !coord.Complete(CompleteRequest{LeaseID: l.LeaseID, Error: "transient", Retryable: true}) {
		t.Fatal("completion of a held lease rejected")
	}
	pending("4")
	lease(highSecond, 1)
	lease(lowFirst, 1)
	pending("2")

	// Its backoff over, the requeued job is leased ahead of the lower
	// priority that was dispatched before it came back.
	coord.mu.Lock()
	for _, w := range coord.waiting {
		if w.key == highFirst {
			w.readyAt = time.Now().Add(-time.Millisecond)
		}
	}
	coord.mu.Unlock()
	lease(highFirst, 2)
	pending("1")

	// Canceling the one Dispatch still waiting empties the list.
	cancelLast()
	for deadline := time.Now().Add(5 * time.Second); gaugeValue(t, reg, "lnuca_fleet_jobs_pending") != "0"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("canceled dispatch of %s still on the waiting list", lowLast)
		}
	}
	if l := coord.Lease("w"); l != nil {
		t.Fatalf("leased %+v from an empty list", l)
	}
}

// TestJSONBodiesAreBounded: every route that decodes a JSON POST body
// answers 413 to one byte over the bound without touching job, lease or
// span state, and answers an ordinary body as it always did.
func TestJSONBodiesAreBounded(t *testing.T) {
	var spans atomic.Int32
	rec := tracez.RecorderFunc(func(tracez.Span) { spans.Add(1) })
	coord := NewCoordinator(Config{Registry: obs.NewRegistry()})
	defer coord.Close()
	orch := orchestrator.New(orchestrator.Config{
		Workers: 1,
		Tracer:  tracez.New(rec),
		Run: func(_ context.Context, j orchestrator.Job, _ func(done, total uint64)) (*orchestrator.JobResult, error) {
			return stubResult(j), nil
		},
	})
	defer orch.Close()
	mux := http.NewServeMux()
	mux.Handle("/fleet/v1/", coord.Handler())
	mux.Handle("/", orchestrator.NewServer(orch))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	routes := []struct {
		path, body string
		want       int
	}{
		{"/v1/jobs", `{"hierarchy":"conventional","benchmark":"403.gcc","warmup":500,"measure":3000}`, http.StatusAccepted},
		{"/v1/sweeps", `{"hierarchies":["conventional"],"benchmarks":["429.mcf"],"warmup":500,"measure":3000}`, http.StatusAccepted},
		{"/v1/spans", `{"spans":[]}`, http.StatusAccepted},
		{PathLease, `{"worker":"w"}`, http.StatusNoContent},
		{PathHeartbeat, `{"lease_id":"lease-000001"}`, http.StatusGone},
		{PathComplete, `{"lease_id":"lease-000001","error":"x"}`, http.StatusGone},
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// One byte over 1 MiB: the decoder has to read through the padding to
	// find the document, and is cut off first.
	const limit = 1 << 20
	for _, r := range routes {
		oversize := strings.Repeat(" ", limit+1-len(r.body)) + r.body
		if got := post(r.path, oversize); got != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes: status %d, want 413", r.path, len(oversize), got)
		}
	}
	coord.mu.Lock()
	workers := len(coord.workers)
	coord.mu.Unlock()
	if m := orch.Metrics(); m.Submitted != 0 || spans.Load() != 0 || workers != 0 ||
		coord.heartbeats.Value() != 0 || coord.lateCompletions.Value() != 0 {
		t.Fatalf("oversize bodies changed state: submitted %d, spans %d, workers seen %d, heartbeats %d, late completions %d",
			m.Submitted, spans.Load(), workers, coord.heartbeats.Value(), coord.lateCompletions.Value())
	}

	for _, r := range routes {
		if got := post(r.path, r.body); got != r.want {
			t.Errorf("POST %s %s: status %d, want %d", r.path, r.body, got, r.want)
		}
	}
	if m := orch.Metrics(); m.Submitted != 2 {
		t.Fatalf("submitted %d jobs through /v1/jobs and /v1/sweeps, want 2", m.Submitted)
	}
}
