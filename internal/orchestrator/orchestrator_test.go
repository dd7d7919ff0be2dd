package orchestrator

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/hier"
)

// quickJob is a small valid job for tests.
func quickJob(bench string) Job {
	return Job{Kind: hier.Conventional, Benchmark: bench, Mode: exp.Quick, Seed: 1}
}

// stubResult fabricates a result without simulating.
func stubResult(j Job) *JobResult {
	return &JobResult{Config: j.Spec().Label(), Benchmark: j.Benchmark, IPC: 1.5, Cycles: 1000}
}

// countingRun returns a RunFunc that counts executions.
func countingRun(mu *sync.Mutex, n *int) RunFunc {
	return func(ctx context.Context, j Job, progress func(done, total uint64)) (*JobResult, error) {
		mu.Lock()
		*n++
		mu.Unlock()
		return stubResult(j), nil
	}
}

// waitDone polls a job to a terminal state.
func waitDone(t *testing.T, o *Orchestrator, id string) JobRecord {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
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
	return JobRecord{}
}

func TestNormalizeAndKey(t *testing.T) {
	// Equivalent submissions collapse onto one key.
	a, err := Job{Kind: hier.LNUCAL3, Benchmark: "403.gcc"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Job{Kind: hier.LNUCAL3, Levels: 3, Benchmark: "403.gcc",
		Mode: exp.Quick, Seed: 1, Priority: 9}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Error("defaulted and explicit jobs should share a key")
	}
	if a.Hierarchy != "LN3-144KB" {
		t.Errorf("hierarchy label = %q", a.Hierarchy)
	}
	// Levels must not leak into non-L-NUCA keys.
	c, _ := Job{Kind: hier.Conventional, Levels: 4, Benchmark: "403.gcc"}.Normalize()
	d, _ := Job{Kind: hier.Conventional, Benchmark: "403.gcc"}.Normalize()
	if c.Key() != d.Key() {
		t.Error("levels changed a conventional hierarchy's key")
	}
	// Distinct content means distinct keys.
	e, _ := Job{Kind: hier.Conventional, Benchmark: "403.gcc", Seed: 2}.Normalize()
	if e.Key() == d.Key() {
		t.Error("seed change kept the same key")
	}
	if _, err := (Job{Kind: hier.Conventional, Benchmark: "no.such"}).Normalize(); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestCacheHitMissAndLRU(t *testing.T) {
	c := NewCache(2, "")
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", &JobResult{IPC: 1})
	c.Put("b", &JobResult{IPC: 2})
	if r, ok := c.Get("a"); !ok || r.IPC != 1 {
		t.Fatal("miss after Put")
	}
	// Capacity 2: inserting c evicts the least recently used (b).
	c.Put("c", &JobResult{IPC: 3})
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", c.Hits(), c.Misses())
	}
}

// TestCacheConcurrentGetPut exercises the Get hot path against
// concurrent overwriting Puts on the same key; run with -race.
func TestCacheConcurrentGetPut(t *testing.T) {
	c := NewCache(4, "")
	c.Put("k", &JobResult{IPC: 1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				c.Put("k", &JobResult{IPC: float64(n)})
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				if r, ok := c.Get("k"); !ok || r == nil {
					t.Error("entry vanished")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestLookupRejectsInvalidJob(t *testing.T) {
	o := New(Config{Workers: 1})
	defer o.Close()
	bad := quickJob("403.gcc")
	bad.Kind = 3 // LNUCADNUCA
	bad.Levels = 9
	if _, _, err := o.Lookup(bad); err == nil {
		t.Error("invalid job did not error")
	}
}

func TestCacheFileStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	c := NewCache(0, dir)
	job, _ := quickJob("403.gcc").Normalize()
	c.Put(job.Key(), &JobResult{Config: "L2-256KB", Benchmark: "403.gcc", IPC: 1.25, Cycles: 42})

	// A fresh cache over the same directory serves the stored result.
	c2 := NewCache(0, dir)
	res, ok := c2.Get(job.Key())
	if !ok {
		t.Fatal("file store miss after Put")
	}
	if res.IPC != 1.25 || res.Cycles != 42 || res.Benchmark != "403.gcc" {
		t.Errorf("round-tripped result corrupted: %+v", res)
	}
}

func TestSubmitMemoizesByContent(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	o := New(Config{Workers: 2, Run: countingRun(&mu, &runs)})
	defer o.Close()

	rec1, err := o.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatal(err)
	}
	done1 := waitDone(t, o, rec1.ID)
	if done1.Status != StatusDone || done1.Result == nil {
		t.Fatalf("first run: %+v", done1)
	}

	// Identical content: answered from cache, no second simulation.
	rec2, err := o.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.Cached || rec2.Status != StatusDone || rec2.Result == nil {
		t.Fatalf("resubmission not served from cache: %+v", rec2)
	}
	// Different content still simulates.
	rec3, _ := o.Submit(quickJob("429.mcf"))
	waitDone(t, o, rec3.ID)

	mu.Lock()
	defer mu.Unlock()
	if runs != 2 {
		t.Errorf("runs = %d, want 2", runs)
	}
}

func TestSingleflightCoalescing(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	release := make(chan struct{})
	o := New(Config{Workers: 1, Run: func(ctx context.Context, j Job, _ func(uint64, uint64)) (*JobResult, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		<-release
		return stubResult(j), nil
	}})
	defer o.Close()

	first, err := o.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatal(err)
	}
	// While the first is in flight, identical submissions coalesce onto
	// its ID instead of queuing duplicate work.
	for i := 0; i < 5; i++ {
		dup, err := o.Submit(quickJob("403.gcc"))
		if err != nil {
			t.Fatal(err)
		}
		if dup.ID != first.ID || !dup.Coalesced {
			t.Fatalf("duplicate %d not coalesced: %+v", i, dup)
		}
	}
	close(release)
	waitDone(t, o, first.ID)

	mu.Lock()
	defer mu.Unlock()
	if runs != 1 {
		t.Errorf("coalesced submissions ran %d times, want 1", runs)
	}
	if m := o.Metrics(); m.Coalesced != 5 {
		t.Errorf("coalesced counter = %d, want 5", m.Coalesced)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	o := New(Config{Workers: 1, Run: func(ctx context.Context, j Job, _ func(uint64, uint64)) (*JobResult, error) {
		close(started)
		<-ctx.Done() // simulate a long run honoring cancellation
		return nil, ctx.Err()
	}})
	defer o.Close()

	rec, err := o.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := o.Cancel(rec.ID); !ok {
		t.Fatal("cancel lost the job")
	}
	final := waitDone(t, o, rec.ID)
	if final.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", final.Status)
	}
	// A canceled run must not poison the cache.
	if _, ok, err := o.Lookup(quickJob("403.gcc")); ok || err != nil {
		t.Errorf("canceled job cache state: ok=%v err=%v", ok, err)
	}
}

func TestCancelQueuedJobAndPriority(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	o := New(Config{Workers: 1, Run: func(ctx context.Context, j Job, _ func(uint64, uint64)) (*JobResult, error) {
		<-release
		mu.Lock()
		order = append(order, j.Benchmark)
		mu.Unlock()
		return stubResult(j), nil
	}})
	defer o.Close()

	// Occupy the single worker, then queue three more.
	blocker, _ := o.Submit(quickJob("403.gcc"))
	time.Sleep(10 * time.Millisecond) // let the worker pick it up
	low, _ := o.Submit(quickJob("429.mcf"))
	victim, _ := o.Submit(quickJob("434.zeusmp"))
	hi := quickJob("482.sphinx3")
	hi.Priority = 10
	urgent, _ := o.Submit(hi)

	if rec, ok := o.Cancel(victim.ID); !ok || rec.Status != StatusCanceled {
		t.Fatalf("queued cancel: %+v", rec)
	}
	close(release)
	for _, id := range []string{blocker.ID, low.ID, urgent.ID} {
		if rec := waitDone(t, o, id); rec.Status != StatusDone {
			t.Fatalf("job %s: %s", id, rec.Status)
		}
	}
	if rec, _ := o.Get(victim.ID); rec.Status != StatusCanceled {
		t.Errorf("victim status = %s", rec.Status)
	}
	mu.Lock()
	defer mu.Unlock()
	// The priority-10 job must overtake the earlier-queued default one.
	if len(order) != 3 || order[1] != "482.sphinx3" || order[2] != "429.mcf" {
		t.Errorf("execution order = %v", order)
	}
}

func TestFailedRunReported(t *testing.T) {
	boom := errors.New("bank exploded")
	o := New(Config{Workers: 1, Run: func(ctx context.Context, j Job, _ func(uint64, uint64)) (*JobResult, error) {
		return nil, boom
	}})
	defer o.Close()
	rec, _ := o.Submit(quickJob("403.gcc"))
	final := waitDone(t, o, rec.ID)
	if final.Status != StatusFailed || final.Error != boom.Error() {
		t.Fatalf("final = %+v", final)
	}
	if m := o.Metrics(); m.Failed != 1 {
		t.Errorf("failed counter = %d", m.Failed)
	}
}

func TestSweepExpansionAndStatus(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	o := New(Config{Workers: 4, Run: countingRun(&mu, &runs)})
	defer o.Close()

	jobs := ExpandSweep(
		[]hier.Kind{hier.Conventional, hier.LNUCAL3},
		[]int{2, 3},
		[]string{"403.gcc", "429.mcf"},
		exp.Quick, 1)
	// conventional contributes 1 spec, LN contributes 2 levels: 3 specs x 2 benches.
	if len(jobs) != 6 {
		t.Fatalf("expanded %d jobs, want 6", len(jobs))
	}
	sid, recs, err := o.SubmitSweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("submitted %d, want 6", len(recs))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := o.Sweep(sid)
		if !ok {
			t.Fatal("sweep lost")
		}
		if st.Done {
			if st.ByState[StatusDone] != 6 {
				t.Fatalf("by_state = %v", st.ByState)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never completed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobResultJSONRoundTrip(t *testing.T) {
	res, err := NewEngine(NewCache(0, ""), nil).Run(context.Background(), Job{Kind: hier.Conventional,
		Benchmark: "403.gcc", Mode: exp.Mode{Name: "tiny", Warmup: 200, Measure: 2000}, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back JobResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.IPC != res.IPC || back.Cycles != res.Cycles {
		t.Error("scalar fields lost in round trip")
	}
	if back.Stats == nil {
		t.Fatal("stats lost in round trip")
	}
	for _, k := range res.Stats.Names() {
		if back.Stats.Counter(k) != res.Stats.Counter(k) {
			t.Fatalf("counter %s: %d != %d", k, back.Stats.Counter(k), res.Stats.Counter(k))
		}
	}
	for _, k := range res.Stats.ScalarNames() {
		if back.Stats.Scalar(k) != res.Stats.Scalar(k) {
			t.Fatalf("scalar %s mismatch", k)
		}
	}
}

// TestParseKind: a request names its hierarchy by request name, alias or
// paper label in any case (the table is hier's; TestKindTable walks it).
func TestParseKind(t *testing.T) {
	for name, want := range map[string]hier.Kind{
		"conventional": hier.Conventional,
		"L2-256KB":     hier.Conventional,
		"ln+l3":        hier.LNUCAL3,
		"DN-4x8":       hier.DNUCAOnly,
		"LN+DN-4x8":    hier.LNUCADNUCA,
	} {
		j, err := Request{Hierarchy: name, Benchmark: "403.gcc"}.Job()
		if err != nil || j.Kind != want {
			t.Errorf("hierarchy %q parsed to %v, %v", name, j.Kind, err)
		}
	}
	_, err := Request{Hierarchy: "l4-extreme", Benchmark: "403.gcc"}.Job()
	if err == nil || !strings.Contains(err.Error(), "unknown hierarchy") {
		t.Errorf("bogus hierarchy: err = %v, want unknown hierarchy", err)
	}
}

func TestMetricsShape(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	o := New(Config{Workers: 3, Run: countingRun(&mu, &runs)})
	defer o.Close()
	rec, _ := o.Submit(quickJob("403.gcc"))
	waitDone(t, o, rec.ID)
	o.Submit(quickJob("403.gcc")) // cache hit
	m := o.Metrics()
	if m.Workers != 3 || m.Executed != 1 || m.Submitted != 2 {
		t.Errorf("metrics = %+v", m)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.CacheHitRate != 0.5 {
		t.Errorf("cache metrics = %+v", m)
	}
	// Metrics must serve as JSON for /metrics.
	if _, err := json.Marshal(m); err != nil {
		t.Fatal(err)
	}
}

func TestCloseRejectsAndDrains(t *testing.T) {
	release := make(chan struct{})
	o := New(Config{Workers: 1, Run: func(ctx context.Context, j Job, _ func(uint64, uint64)) (*JobResult, error) {
		select {
		case <-release:
			return stubResult(j), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	rec, _ := o.Submit(quickJob("403.gcc"))
	time.Sleep(10 * time.Millisecond)
	queued, _ := o.Submit(quickJob("429.mcf"))
	done := make(chan struct{})
	go func() { o.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	if _, err := o.Submit(quickJob("434.zeusmp")); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v", err)
	}
	if r, _ := o.Get(queued.ID); r.Status != StatusCanceled {
		t.Errorf("queued job after Close = %s", r.Status)
	}
	if r, _ := o.Get(rec.ID); !r.Status.Terminal() {
		t.Errorf("running job after Close = %s", r.Status)
	}
	close(release)
}

// Ensure the example in the package doc stays true: submitting the same
// matrix twice executes each cell exactly once.
func TestSweepResubmissionHitsCache(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	o := New(Config{Workers: 4, Run: countingRun(&mu, &runs)})
	defer o.Close()
	jobs := ExpandSweep([]hier.Kind{hier.Conventional, hier.LNUCAL3, hier.DNUCAOnly},
		nil, []string{"403.gcc", "429.mcf", "434.zeusmp", "482.sphinx3"}, exp.Quick, 1)
	if len(jobs) != 12 {
		t.Fatalf("expanded %d jobs, want 12", len(jobs))
	}
	sid, _, err := o.SubmitSweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, o, sid)
	sid2, recs, err := o.SubmitSweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, o, sid2)
	for _, r := range recs {
		if !r.Cached {
			t.Errorf("cell %s/%s not served from cache", r.Job.Hierarchy, r.Job.Benchmark)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 12 {
		t.Errorf("matrix of 12 ran %d simulations", runs)
	}
}

// TestResubmitAfterCancelRuns ensures a fresh submission does not
// coalesce onto a running job whose cancellation was already requested:
// the new client must get a job that actually computes.
func TestResubmitAfterCancelRuns(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	o := New(Config{Workers: 2, Run: func(ctx context.Context, j Job, _ func(uint64, uint64)) (*JobResult, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return stubResult(j), nil
		}
	}})
	defer o.Close()

	first, _ := o.Submit(quickJob("403.gcc"))
	<-started
	if _, ok := o.Cancel(first.ID); !ok {
		t.Fatal("cancel lost the job")
	}
	// The cancel is requested but the worker may not have observed it
	// yet; an identical resubmission must become a NEW job.
	second, err := o.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID || second.Coalesced {
		t.Fatalf("resubmission inherited the dying job: %+v", second)
	}
	<-started
	// The original must land canceled before release opens, so its
	// worker can only have exited via ctx.Done.
	if rec := waitDone(t, o, first.ID); rec.Status != StatusCanceled {
		t.Fatalf("original ended %s", rec.Status)
	}
	close(release)
	if rec := waitDone(t, o, second.ID); rec.Status != StatusDone {
		t.Fatalf("resubmission ended %s (%s)", rec.Status, rec.Error)
	}
}

// TestSweepValidatesBeforeEnqueue ensures one bad cell rejects the whole
// sweep without leaving orphaned jobs running.
func TestSweepValidatesBeforeEnqueue(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	o := New(Config{Workers: 2, Run: countingRun(&mu, &runs)})
	defer o.Close()
	jobs := []Job{quickJob("403.gcc"), quickJob("no.such"), quickJob("429.mcf")}
	if _, _, err := o.SubmitSweep(jobs); err == nil {
		t.Fatal("invalid sweep accepted")
	}
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if runs != 0 {
		t.Errorf("invalid sweep still enqueued %d runs", runs)
	}
	if n := len(o.List("")); n != 0 {
		t.Errorf("invalid sweep left %d records", n)
	}
}

// TestRecordRetentionBounded ensures terminal records are pruned past
// RecordCap so a long-running daemon does not grow without bound.
func TestRecordRetentionBounded(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	o := New(Config{Workers: 1, RecordCap: 8, Run: countingRun(&mu, &runs)})
	defer o.Close()
	var last JobRecord
	for i := 0; i < 40; i++ {
		// Distinct seeds make distinct content; each run completes and
		// each subsequent cache-hit submission also creates a record.
		j := quickJob("403.gcc")
		j.Seed = uint64(i + 1)
		rec, err := o.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		last = waitDone(t, o, rec.ID)
	}
	if n := len(o.List("")); n > 8 {
		t.Errorf("retained %d records, cap 8", n)
	}
	// The most recent record must survive pruning.
	if _, ok := o.Get(last.ID); !ok {
		t.Error("newest record pruned")
	}
}

func waitSweep(t *testing.T, o *Orchestrator, sid string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := o.Sweep(sid); ok && st.Done {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("sweep %s never completed", sid)
}
