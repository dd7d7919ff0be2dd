package orchestrator

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// checkBalance asserts the metrics-consistency invariant: because every
// lifecycle counter is updated in the same critical section as its
// state transition, any snapshot must balance exactly — no submission
// is ever double-counted or in flight between states.
func checkBalance(t *testing.T, m Metrics) {
	t.Helper()
	accounted := m.Coalesced + m.Cached + m.Executed + m.Failed + m.Canceled +
		uint64(m.QueueDepth) + uint64(m.Running)
	if m.Submitted != accounted {
		t.Errorf("metrics snapshot unbalanced: submitted=%d but coalesced=%d + cached=%d + executed=%d + failed=%d + canceled=%d + queued=%d + running=%d = %d",
			m.Submitted, m.Coalesced, m.Cached, m.Executed, m.Failed, m.Canceled,
			m.QueueDepth, m.Running, accounted)
	}
}

// TestMetricsSnapshotConsistency is the regression test for the
// non-atomic sampling bug: queue depth and the in-flight count used to
// be read under the lock while the lifecycle counters were separate
// atomics bumped outside it, so a scrape racing Submit could see
// submitted jobs that were in no state at all. Hammer the orchestrator
// with submissions (fresh, coalescing and cached) while concurrently
// snapshotting, and require every single snapshot to balance.
func TestMetricsSnapshotConsistency(t *testing.T) {
	release := make(chan struct{})
	o := New(Config{
		Workers: 3,
		Run: func(ctx context.Context, j Job, progress func(done, total uint64)) (*JobResult, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResult(j), nil
		},
	})

	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			checkBalance(t, o.Metrics())
		}
	}()

	var wg sync.WaitGroup
	benches := []string{"429.mcf", "482.sphinx3", "403.gcc", "470.lbm"}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Seeds collide across workers on purpose: coalescing and
				// cache-hit paths must keep the books balanced too.
				j := quickJob(benches[i%len(benches)])
				j.Seed = uint64(i%5 + 1)
				if _, err := o.Submit(j); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(release)

	// Drain: every accepted submission must end up terminal, and the
	// final snapshot must still balance with queue and running at zero.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := o.Metrics()
		checkBalance(t, m)
		if m.QueueDepth == 0 && m.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-scraperDone
	o.Close()
	m := o.Metrics()
	checkBalance(t, m)
	if m.Submitted != 400 {
		t.Errorf("submitted = %d, want 400", m.Submitted)
	}
	if m.Cached+m.Coalesced == 0 {
		t.Error("test exercised no dedup paths; tighten the job matrix")
	}
}

// TestJobTimeline: a simulated job's record carries the full
// submitted -> started -> finished history with consistent durations,
// and a cache hit finishes instantly without ever starting.
func TestJobTimeline(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	o := New(Config{
		Workers: 1,
		Run: func(ctx context.Context, j Job, progress func(done, total uint64)) (*JobResult, error) {
			started <- struct{}{}
			<-release
			return stubResult(j), nil
		},
	})
	defer o.Close()

	rec, err := o.Submit(quickJob("429.mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Timeline.SubmittedAt.IsZero() {
		t.Error("queued record has no SubmittedAt")
	}
	<-started
	// Running: StartedAt set, FinishedAt not, RunSeconds accruing.
	time.Sleep(5 * time.Millisecond)
	mid, _ := o.Get(rec.ID)
	if mid.Status != StatusRunning {
		t.Fatalf("status = %s, want running", mid.Status)
	}
	if mid.Timeline.StartedAt == nil || mid.Timeline.FinishedAt != nil {
		t.Errorf("running timeline wrong: %+v", mid.Timeline)
	}
	if mid.Timeline.RunSeconds <= 0 {
		t.Errorf("running job reports RunSeconds = %v, want accruing", mid.Timeline.RunSeconds)
	}
	close(release)
	done := waitDone(t, o, rec.ID)
	tl := done.Timeline
	if tl.StartedAt == nil || tl.FinishedAt == nil {
		t.Fatalf("terminal timeline incomplete: %+v", tl)
	}
	if tl.QueueSeconds < 0 || tl.RunSeconds <= 0 {
		t.Errorf("durations = queue %v run %v, want run positive", tl.QueueSeconds, tl.RunSeconds)
	}
	if got := tl.StartedAt.Sub(tl.SubmittedAt).Seconds(); got != tl.QueueSeconds {
		t.Errorf("QueueSeconds %v != StartedAt-SubmittedAt %v", tl.QueueSeconds, got)
	}
	if got := tl.FinishedAt.Sub(*tl.StartedAt).Seconds(); got != tl.RunSeconds {
		t.Errorf("RunSeconds %v != FinishedAt-StartedAt %v", tl.RunSeconds, got)
	}

	// A cache hit finishes at submission: no StartedAt, zero run time.
	hit, err := o.Submit(quickJob("429.mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Status != StatusDone {
		t.Fatalf("resubmission not served from cache: %+v", hit)
	}
	if hit.Timeline.StartedAt != nil || hit.Timeline.FinishedAt == nil {
		t.Errorf("cache-hit timeline wrong: %+v", hit.Timeline)
	}
	if hit.Timeline.RunSeconds != 0 {
		t.Errorf("cache hit reports RunSeconds = %v, want 0", hit.Timeline.RunSeconds)
	}
}

// TestRegistryExport: with a Registry configured, the orchestrator's
// Prometheus scrape reports job totals consistent with the JSON
// snapshot, including the lnuca_runs_executed_total counter the CI
// smoke test asserts on.
func TestRegistryExport(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	n := 0
	o := New(Config{Workers: 1, Registry: reg, Run: countingRun(&mu, &n)})
	defer o.Close()

	rec, err := o.Submit(quickJob("429.mcf"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, o, rec.ID)
	if _, err := o.Submit(quickJob("429.mcf")); err != nil { // cache hit
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	wantSamples := map[string]float64{
		"lnuca_jobs_submitted_total": 2,
		"lnuca_runs_executed_total":  1,
		"lnuca_jobs_cached_total":    1,
		"lnuca_queue_depth":          0,
		"lnuca_jobs_running":         0,
		"lnuca_workers":              1,
	}
	for name, want := range wantSamples {
		var got float64
		found := false
		for _, line := range strings.Split(text, "\n") {
			var v float64
			if n, _ := fmt.Sscanf(line, name+" %g", &v); n == 1 && !strings.Contains(line, "#") {
				got, found = v, true
				break
			}
		}
		if !found || got != want {
			t.Errorf("scrape sample %s = %v (found %v), want %v\nscrape:\n%s", name, got, found, want, text)
		}
	}
	for _, h := range []string{"lnuca_job_queue_seconds", "lnuca_job_run_seconds"} {
		if !strings.Contains(text, h+"_count 1") {
			t.Errorf("scrape missing %s_count 1:\n%s", h, text)
		}
	}
}

// TestLifecycleLogging: the configured logger receives submitted /
// started / done events carrying the job ID.
func TestLifecycleLogging(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	var mu sync.Mutex
	n := 0
	o := New(Config{Workers: 1, Logger: logger, Run: countingRun(&mu, &n)})
	defer o.Close()
	rec, err := o.Submit(quickJob("429.mcf"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, o, rec.ID)
	out := buf.String()
	for _, want := range []string{"job submitted", "job started", "job done", "job_id=" + rec.ID} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}
