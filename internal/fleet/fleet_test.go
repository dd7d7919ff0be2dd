package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/trace"
)

// quickJob is a small valid single-core job.
func quickJob(bench string) orchestrator.Job {
	return orchestrator.Job{Kind: hier.Conventional, Benchmark: bench, Mode: exp.Quick, Seed: 1}
}

// stubResult fabricates a deterministic result without simulating.
func stubResult(j orchestrator.Job) *orchestrator.JobResult {
	return &orchestrator.JobResult{Config: j.Spec().Label(), Benchmark: j.Benchmark, IPC: 1.5, Cycles: 1000}
}

// sampleTrace is a small valid recorded stream with enough ops to
// cover its warmup+measure window plus replay slack.
func sampleTrace() *trace.Trace {
	ops := make([]cpu.Op, 0, 800)
	for i := 0; len(ops) < 800; i++ {
		switch i % 4 {
		case 0:
			ops = append(ops, cpu.Op{Class: cpu.ClassInt, Dep1: 1})
		case 1:
			ops = append(ops, cpu.Op{Class: cpu.ClassLoad, Addr: mem.Addr(0x1000_0000 + (i%64)*64), Dep1: 2})
		case 2:
			ops = append(ops, cpu.Op{Class: cpu.ClassStore, Addr: mem.Addr(0x2000_0000 + (i%32)*64)})
		default:
			ops = append(ops, cpu.Op{Class: cpu.ClassBranch, PC: uint64(16 + i%8*4), Taken: i%3 == 0})
		}
	}
	return trace.New(trace.Meta{Benchmark: "400.perlbench", Seed: 7, Warmup: 100, Measure: 400}, ops)
}

// stack is one in-process fleet: a coordinator plugged into an
// orchestrator as its RunFunc, served over a real HTTP listener, with
// N pull workers running against it.
type stack struct {
	coord *Coordinator
	orch  *orchestrator.Orchestrator
	srv   *httptest.Server

	stopWorkers context.CancelFunc
	workersDone sync.WaitGroup
}

// startStack wires coordinator, orchestrator and workers together. A
// nil workerRun leaves each worker on the production Engine.Do
// default. Close order matters and close() encodes it.
func startStack(t *testing.T, ccfg Config, ocfg orchestrator.Config, workers int, workerRun orchestrator.RunFunc) *stack {
	t.Helper()
	coord := NewCoordinator(ccfg)
	ocfg.Run = coord.Dispatch
	orch := orchestrator.New(ocfg)
	srv := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	s := &stack{coord: coord, orch: orch, srv: srv, stopWorkers: cancel}
	for i := 0; i < workers; i++ {
		w := NewWorker(WorkerConfig{
			Coordinator:  srv.URL,
			Name:         fmt.Sprintf("w%d", i),
			Run:          workerRun,
			PollInterval: 5 * time.Millisecond,
		})
		s.workersDone.Add(1)
		go func() {
			defer s.workersDone.Done()
			_ = w.Run(ctx)
		}()
	}
	return s
}

// close tears the stack down: orchestrator first (unblocks every
// Dispatch), then workers, coordinator, listener.
func (s *stack) close() {
	s.orch.Close()
	s.stopWorkers()
	s.workersDone.Wait()
	s.coord.Close()
	s.srv.Close()
}

// waitDone polls a job to a terminal state.
func waitDone(t *testing.T, o *orchestrator.Orchestrator, id string) orchestrator.JobRecord {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := o.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if rec.Status.Terminal() {
			return rec
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return orchestrator.JobRecord{}
}

// checkBalance asserts the orchestrator's lifecycle counter invariant.
func checkBalance(t *testing.T, o *orchestrator.Orchestrator) {
	t.Helper()
	m := o.Metrics()
	sum := m.Coalesced + m.Cached + m.Executed + m.Failed + m.Canceled +
		uint64(m.QueueDepth) + uint64(m.Running)
	if m.Submitted != sum {
		t.Fatalf("counters unbalanced: submitted=%d, parts sum to %d (%+v)", m.Submitted, sum, m)
	}
}

func TestFleetEndToEnd(t *testing.T) {
	// Six jobs through two pull workers over real HTTP: every result
	// lands, the counters balance, and the results flowed through the
	// lease protocol rather than local execution.
	reg := obs.NewRegistry()
	s := startStack(t,
		Config{LeaseTTL: 500 * time.Millisecond, Registry: reg},
		orchestrator.Config{Workers: 4},
		2,
		func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
			progress(500, 1000)
			return stubResult(j), nil
		})
	defer s.close()

	benches := []string{"403.gcc", "429.mcf", "462.libquantum", "437.leslie3d", "400.perlbench", "471.omnetpp"}
	ids := make([]string, 0, len(benches))
	for _, b := range benches {
		rec, err := s.orch.Submit(quickJob(b))
		if err != nil {
			t.Fatalf("submit %s: %v", b, err)
		}
		ids = append(ids, rec.ID)
	}
	for i, id := range ids {
		rec := waitDone(t, s.orch, id)
		if rec.Status != orchestrator.StatusDone {
			t.Fatalf("job %s: status %s, error %q", id, rec.Status, rec.Error)
		}
		if rec.Result == nil || rec.Result.Benchmark != benches[i] {
			t.Fatalf("job %s: wrong result %+v", id, rec.Result)
		}
	}
	checkBalance(t, s.orch)
	m := s.orch.Metrics()
	if m.Executed != uint64(len(benches)) {
		t.Fatalf("runs executed = %d, want %d", m.Executed, len(benches))
	}
	if s.coord.leasesGranted.Value() < uint64(len(benches)) {
		t.Fatalf("leases granted = %d, want >= %d", s.coord.leasesGranted.Value(), len(benches))
	}
	if m.Failed != 0 || s.coord.requeues.Value() != 0 {
		t.Fatalf("unexpected failures/requeues: %d/%d", m.Failed, s.coord.requeues.Value())
	}
}

func TestFleetRequeueExactlyOnce(t *testing.T) {
	// A worker takes a lease and dies (never heartbeats). The reaper
	// must expire the lease, requeue the job, and a live worker must
	// execute it exactly once — with balanced counters afterwards.
	reg := obs.NewRegistry()
	var mu sync.Mutex
	executions := 0

	coord := NewCoordinator(Config{
		LeaseTTL:       60 * time.Millisecond,
		MaxAttempts:    3,
		RetryBaseDelay: 5 * time.Millisecond,
		Registry:       reg,
	})
	defer coord.Close()
	orch := orchestrator.New(orchestrator.Config{Workers: 1, Run: coord.Dispatch})
	defer orch.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	rec, err := orch.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// The dead worker grabs the lease directly and goes silent.
	var zombie *LeaseResponse
	deadline := time.Now().Add(5 * time.Second)
	for zombie == nil && time.Now().Before(deadline) {
		if zombie = coord.Lease(context.Background(), "zombie", 0); zombie == nil {
			time.Sleep(time.Millisecond)
		}
	}
	if zombie == nil {
		t.Fatal("zombie worker never got the lease")
	}

	// Only now does a live worker join the fleet.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(WorkerConfig{
		Coordinator:  srv.URL,
		Name:         "live",
		PollInterval: 5 * time.Millisecond,
		Run: func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
			mu.Lock()
			executions++
			mu.Unlock()
			return stubResult(j), nil
		},
	})
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); _ = w.Run(ctx) }()

	got := waitDone(t, orch, rec.ID)
	if got.Status != orchestrator.StatusDone {
		t.Fatalf("job status %s, error %q", got.Status, got.Error)
	}
	cancel()
	done.Wait()

	mu.Lock()
	n := executions
	mu.Unlock()
	if n != 1 {
		t.Fatalf("job executed %d times, want exactly 1", n)
	}
	if coord.requeues.Value() < 1 {
		t.Fatalf("requeues = %d, want >= 1 (dead worker's lease must expire)", coord.requeues.Value())
	}
	if coord.leasesGranted.Value() < 2 {
		t.Fatalf("leases granted = %d, want >= 2", coord.leasesGranted.Value())
	}
	// The zombie's late completion is answered 410 and dropped.
	if ok := coord.Complete(CompleteRequest{LeaseID: zombie.LeaseID, Result: stubResult(quickJob("403.gcc"))}); ok {
		t.Fatal("late completion on an expired lease must be rejected")
	}
	checkBalance(t, orch)
}

func TestFleetTerminalErrorNotRetried(t *testing.T) {
	// A deterministic simulation error is terminal on the first
	// attempt: no requeue, the submitter sees the failure.
	reg := obs.NewRegistry()
	s := startStack(t,
		Config{LeaseTTL: 500 * time.Millisecond, Registry: reg},
		orchestrator.Config{Workers: 1},
		1,
		func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
			return nil, fmt.Errorf("simulated divergence in %s", j.Benchmark)
		})
	defer s.close()

	rec, err := s.orch.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got := waitDone(t, s.orch, rec.ID)
	if got.Status != orchestrator.StatusFailed {
		t.Fatalf("status = %s, want failed", got.Status)
	}
	if !strings.Contains(got.Error, "simulated divergence") {
		t.Fatalf("error %q does not surface the worker's message", got.Error)
	}
	if s.coord.requeues.Value() != 0 {
		t.Fatalf("requeues = %d, want 0 for a terminal error", s.coord.requeues.Value())
	}
	if failed := s.orch.Metrics().Failed; failed != 1 || s.coord.workerErrors.Value() != 1 {
		t.Fatalf("failed/workerErrors = %d/%d, want 1/1", failed, s.coord.workerErrors.Value())
	}
	checkBalance(t, s.orch)
}

func TestFleetRetryExhaustion(t *testing.T) {
	// Retryable failures burn attempts; at MaxAttempts the job fails
	// terminally with the attempt count in the error.
	reg := obs.NewRegistry()
	coord := NewCoordinator(Config{
		LeaseTTL:       time.Second,
		MaxAttempts:    2,
		RetryBaseDelay: time.Millisecond,
		Registry:       reg,
	})
	defer coord.Close()

	job, err := quickJob("403.gcc").Normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := coord.Dispatch(context.Background(), job, nil)
		errCh <- err
	}()

	for attempt := 1; attempt <= 2; attempt++ {
		var l *LeaseResponse
		deadline := time.Now().Add(5 * time.Second)
		for l == nil && time.Now().Before(deadline) {
			if l = coord.Lease(context.Background(), "w1", 0); l == nil {
				time.Sleep(time.Millisecond)
			}
		}
		if l == nil {
			t.Fatalf("attempt %d never leased", attempt)
		}
		if l.Attempt != attempt {
			t.Fatalf("lease attempt = %d, want %d", l.Attempt, attempt)
		}
		if !coord.Complete(CompleteRequest{LeaseID: l.LeaseID, Error: "coordinator unreachable", Retryable: true}) {
			t.Fatalf("attempt %d: completion rejected", attempt)
		}
	}

	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "after 2 attempts") {
			t.Fatalf("dispatch error = %v, want terminal failure after 2 attempts", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch never returned")
	}
	if coord.requeues.Value() != 1 {
		t.Fatalf("requeues = %d, want 1 (second failure is terminal, not requeued)", coord.requeues.Value())
	}
}

func TestFleetCancelPropagatesToWorker(t *testing.T) {
	// When the submitter gives up, the executing worker learns via its
	// next heartbeat, and whatever it delivers afterwards is dropped.
	coord := NewCoordinator(Config{LeaseTTL: time.Second})
	defer coord.Close()

	job, err := quickJob("403.gcc").Normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := coord.Dispatch(ctx, job, nil)
		errCh <- err
	}()

	var l *LeaseResponse
	deadline := time.Now().Add(5 * time.Second)
	for l == nil && time.Now().Before(deadline) {
		if l = coord.Lease(context.Background(), "w1", 0); l == nil {
			time.Sleep(time.Millisecond)
		}
	}
	if l == nil {
		t.Fatal("job never leased")
	}
	if cancelFlag, ok := coord.Heartbeat(l.LeaseID, 0, 0); !ok || cancelFlag {
		t.Fatalf("pre-cancel heartbeat = (cancel=%v, ok=%v), want (false, true)", cancelFlag, ok)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("dispatch error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch never returned after cancel")
	}
	if cancelFlag, ok := coord.Heartbeat(l.LeaseID, 0, 0); !ok || !cancelFlag {
		t.Fatalf("post-cancel heartbeat = (cancel=%v, ok=%v), want (true, true)", cancelFlag, ok)
	}
	// The worker aborts and reports; the outcome is dropped, not an error.
	if !coord.Complete(CompleteRequest{LeaseID: l.LeaseID, Error: context.Canceled.Error(), Retryable: true}) {
		t.Fatal("canceled job's completion should be accepted (and dropped)")
	}
	if coord.requeues != nil {
		t.Fatal("test bug: no registry, counters must be nil")
	}
}

func TestFleetWorkerFetchesTraceFromCoordinator(t *testing.T) {
	// A trace job leased to a worker whose local store misses the hash:
	// the worker pulls the frame from the coordinator, verifies the
	// content hash, and replays it — end to end over HTTP.
	tr := sampleTrace()
	traces := trace.NewStore("")
	if _, err := traces.Put(tr); err != nil {
		t.Fatalf("seed trace: %v", err)
	}

	reg := obs.NewRegistry()
	coord := NewCoordinator(Config{LeaseTTL: 2 * time.Second, Traces: traces})
	orch := orchestrator.New(orchestrator.Config{Workers: 1, Run: coord.Dispatch, Traces: traces})
	srv := httptest.NewServer(obs.Middleware(coord.Handler(), nil, reg, RouteLabel))
	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorker(WorkerConfig{
		Coordinator:  srv.URL,
		Name:         "fetcher",
		PollInterval: 5 * time.Millisecond,
		// Default Run: the real simulator replaying the fetched trace.
	})
	var done sync.WaitGroup
	done.Add(1)
	go func() { defer done.Done(); _ = w.Run(ctx) }()
	defer func() {
		orch.Close()
		cancel()
		done.Wait()
		coord.Close()
		srv.Close()
	}()

	rec, err := orch.Submit(orchestrator.Job{Kind: hier.Conventional, Trace: tr.ID()})
	if err != nil {
		t.Fatalf("submit trace job: %v", err)
	}
	got := waitDone(t, orch, rec.ID)
	if got.Status != orchestrator.StatusDone {
		t.Fatalf("trace job status %s, error %q", got.Status, got.Error)
	}
	if got.Result == nil || !got.Result.Valid() {
		t.Fatalf("trace job returned invalid result %+v", got.Result)
	}
	if n := gaugeValue(t, reg, `lnuca_http_requests_total{method="GET",route="/fleet/v1/traces/{id}",code="200"}`); n != "1" {
		t.Fatalf("trace fetches = %s, want 1", n)
	}
}

func TestFleetByteIdenticalToLocal(t *testing.T) {
	// The invariant the whole design hangs on: a sweep executed by the
	// fleet produces byte-identical job-key (KeySchema) cache entries to the
	// same sweep executed in-process.
	jobs := []orchestrator.Job{quickJob("403.gcc"), quickJob("429.mcf")}

	localDir := t.TempDir()
	local := orchestrator.New(orchestrator.Config{
		Workers: 2,
		Cache:   orchestrator.NewCache(0, localDir),
	})
	for _, j := range jobs {
		rec, err := local.Submit(j)
		if err != nil {
			t.Fatalf("local submit: %v", err)
		}
		if got := waitDone(t, local, rec.ID); got.Status != orchestrator.StatusDone {
			t.Fatalf("local job %s: %s %q", rec.ID, got.Status, got.Error)
		}
	}
	local.Close()

	fleetDir := t.TempDir()
	s := startStack(t,
		Config{LeaseTTL: 5 * time.Second},
		orchestrator.Config{Workers: 2, Cache: orchestrator.NewCache(0, fleetDir)},
		2,
		nil) // production Engine.Do on each worker
	for _, j := range jobs {
		rec, err := s.orch.Submit(j)
		if err != nil {
			t.Fatalf("fleet submit: %v", err)
		}
		if got := waitDone(t, s.orch, rec.ID); got.Status != orchestrator.StatusDone {
			t.Fatalf("fleet job %s: %s %q", rec.ID, got.Status, got.Error)
		}
	}
	s.close()

	for _, j := range jobs {
		nj, err := j.Normalize()
		if err != nil {
			t.Fatalf("normalize: %v", err)
		}
		name := nj.Key() + ".json"
		lb, err := os.ReadFile(filepath.Join(localDir, name))
		if err != nil {
			t.Fatalf("local cache entry: %v", err)
		}
		fb, err := os.ReadFile(filepath.Join(fleetDir, name))
		if err != nil {
			t.Fatalf("fleet cache entry: %v", err)
		}
		if !bytes.Equal(lb, fb) {
			t.Fatalf("cache entry %s differs between local and fleet execution:\nlocal: %s\nfleet: %s", name, lb, fb)
		}
	}
}

func TestFleetCoordinatorRestartResumesSweep(t *testing.T) {
	// Kill the coordinator mid-sweep and bring up a fresh one over the
	// same cache dir and journal: the queued remainder completes, and
	// points already in the store are never re-simulated.
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "cache")
	journalPath := filepath.Join(dir, "journal.jsonl")

	var mu sync.Mutex
	executions := map[string]int{} // benchmark -> runs, across both incarnations
	countingRun := func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
		mu.Lock()
		executions[j.Benchmark]++
		mu.Unlock()
		return stubResult(j), nil
	}

	// ---- First incarnation: finish A and B, leave C queued. ----
	j1, err := orchestrator.OpenJournal(journalPath)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	coord1 := NewCoordinator(Config{LeaseTTL: time.Second})
	orch1 := orchestrator.New(orchestrator.Config{
		Workers: 1,
		Cache:   orchestrator.NewCache(0, cachePath),
		Run:     coord1.Dispatch,
		Journal: j1,
	})
	srv1 := httptest.NewServer(coord1.Handler())
	ctx1, cancel1 := context.WithCancel(context.Background())
	w1 := NewWorker(WorkerConfig{Coordinator: srv1.URL, Name: "w1", PollInterval: 5 * time.Millisecond, Run: countingRun})
	var done1 sync.WaitGroup
	done1.Add(1)
	go func() { defer done1.Done(); _ = w1.Run(ctx1) }()

	for _, b := range []string{"403.gcc", "429.mcf"} {
		rec, err := orch1.Submit(quickJob(b))
		if err != nil {
			t.Fatalf("submit %s: %v", b, err)
		}
		if got := waitDone(t, orch1, rec.ID); got.Status != orchestrator.StatusDone {
			t.Fatalf("job %s: %s %q", b, got.Status, got.Error)
		}
	}
	// The worker dies before C can run...
	cancel1()
	done1.Wait()
	// ...and C is submitted into a fleet with no workers left.
	if _, err := orch1.Submit(quickJob("462.libquantum")); err != nil {
		t.Fatalf("submit stranded job: %v", err)
	}
	// Crash the first incarnation. Orchestrator.Close cancels the
	// stranded dispatch without journaling an end for it.
	orch1.Close()
	coord1.Close()
	srv1.Close()
	if err := j1.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	// ---- Second incarnation over the same cache dir and journal. ----
	j2, err := orchestrator.OpenJournal(journalPath)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	pending := j2.Pending()
	if len(pending) != 1 {
		t.Fatalf("pending after restart = %d entries, want 1 (only the stranded job)", len(pending))
	}
	coord2 := NewCoordinator(Config{LeaseTTL: time.Second})
	orch2 := orchestrator.New(orchestrator.Config{
		Workers: 1,
		Cache:   orchestrator.NewCache(0, cachePath),
		Run:     coord2.Dispatch,
		Journal: j2,
	})
	srv2 := httptest.NewServer(coord2.Handler())
	ctx2, cancel2 := context.WithCancel(context.Background())
	w2 := NewWorker(WorkerConfig{Coordinator: srv2.URL, Name: "w2", PollInterval: 5 * time.Millisecond, Run: countingRun})
	var done2 sync.WaitGroup
	done2.Add(1)
	go func() { defer done2.Done(); _ = w2.Run(ctx2) }()
	defer func() {
		orch2.Close()
		cancel2()
		done2.Wait()
		coord2.Close()
		srv2.Close()
		j2.Close()
	}()

	// Replay the journal, then re-run the full sweep the way a client
	// resuming would: completed points must come from the store.
	ids := make([]string, 0, 3)
	for _, req := range pending {
		job, err := req.Job()
		if err != nil {
			t.Fatalf("pending request: %v", err)
		}
		rec, err := orch2.Submit(job)
		if err != nil {
			t.Fatalf("resubmit pending: %v", err)
		}
		ids = append(ids, rec.ID)
	}
	for _, b := range []string{"403.gcc", "429.mcf", "462.libquantum"} {
		rec, err := orch2.Submit(quickJob(b))
		if err != nil {
			t.Fatalf("resubmit %s: %v", b, err)
		}
		ids = append(ids, rec.ID)
	}
	for _, id := range ids {
		if got := waitDone(t, orch2, id); got.Status != orchestrator.StatusDone {
			t.Fatalf("resumed job %s: %s %q", id, got.Status, got.Error)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	for b, want := range map[string]int{"403.gcc": 1, "429.mcf": 1, "462.libquantum": 1} {
		if executions[b] != want {
			t.Fatalf("%s executed %d times across restart, want %d (stored points must not re-simulate)",
				b, executions[b], want)
		}
	}
	m := orch2.Metrics()
	if m.Cached < 2 {
		t.Fatalf("second incarnation cached hits = %d, want >= 2 (A and B come from the store)", m.Cached)
	}
	checkBalance(t, orch2)
}

func TestFleetRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/fleet/v1/lease":      PathLease,
		"/fleet/v1/heartbeat":  PathHeartbeat,
		"/fleet/v1/complete":   PathComplete,
		"/fleet/v1/traces/abc": PathTraces + "{id}",
		"/v1/jobs/job-00004":   "/v1/jobs/{id}",
	}
	for path, want := range cases {
		r := httptest.NewRequest("GET", path, nil)
		if got := RouteLabel(r); got != want {
			t.Fatalf("RouteLabel(%s) = %q, want %q", path, got, want)
		}
	}
}

// TestFleetCarriesMachine: a request with a machine crosses a lease as the
// request it is — the worker normalizes it to the coordinator's key, so
// its key check passes — and runs the machine it names.
func TestFleetCarriesMachine(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	s := startStack(t, Config{LeaseTTL: 500 * time.Millisecond}, orchestrator.Config{Workers: 1}, 1,
		func(ctx context.Context, j orchestrator.Job, _ func(done, total uint64)) (*orchestrator.JobResult, error) {
			mu.Lock()
			ran = append(ran, j.Spec().Label())
			mu.Unlock()
			return stubResult(j), nil
		})
	defer s.close()
	job, err := orchestrator.Request{Hierarchy: "ln+l3", Benchmark: "403.gcc", Machine: map[string]float64{"ln.link_buf": 1}}.Job()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.orch.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if rec = waitDone(t, s.orch, rec.ID); rec.Status != orchestrator.StatusDone || rec.Key != job.Key() {
		t.Fatalf("status %s (%q), key %s; want done under %s", rec.Status, rec.Error, rec.Key, job.Key())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || ran[0] != "LN3-144KB {ln.link_buf=1}" {
		t.Fatalf("worker ran %v", ran)
	}
}
