package orchestrator

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// journalAt opens a journal or fails the test.
func journalAt(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestJournalRoundTrip drives jobs through an orchestrator with a
// journal and checks the pending set tracks the queue: completed jobs
// leave no residue, jobs alive at shutdown come back.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.journal")

	// Phase 1: run two jobs to completion. Nothing should be pending.
	j := journalAt(t, path)
	o := New(Config{Workers: 1, Journal: j, Run: countingRun(&sync.Mutex{}, new(int))})
	a, err := o.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := o.Submit(quickJob("429.mcf"))
	waitDone(t, o, a.ID)
	waitDone(t, o, b.ID)
	o.Close()
	j.Close()

	if pend := journalAt(t, path).Pending(); len(pend) != 0 {
		t.Fatalf("pending after clean completion = %d, want 0", len(pend))
	}

	// Phase 2: jobs queued and running at shutdown must survive it.
	j2 := journalAt(t, path)
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	o2 := New(Config{Workers: 1, Journal: j2, Run: func(ctx context.Context, job Job, _ func(uint64, uint64)) (*JobResult, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return stubResult(job), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	running, _ := o2.Submit(quickJob("403.gcc"))
	<-started
	queued, _ := o2.Submit(quickJob("434.zeusmp"))
	o2.Close() // cancels both without journaling their cancellation
	close(release)
	j2.Close()

	j3 := journalAt(t, path)
	pend := j3.Pending()
	if len(pend) != 2 {
		t.Fatalf("pending after shutdown = %d, want 2 (running %s + queued %s)", len(pend), running.ID, queued.ID)
	}
	benches := map[string]bool{}
	for _, req := range pend {
		benches[req.Benchmark] = true
	}
	if !benches["403.gcc"] || !benches["434.zeusmp"] {
		t.Fatalf("pending requests = %+v, want the two interrupted jobs", pend)
	}

	// Phase 3: replay into a fresh orchestrator; once done, a reopened
	// journal is empty again.
	o3 := New(Config{Workers: 2, Journal: j3, Run: countingRun(&sync.Mutex{}, new(int))})
	for _, req := range j3.Pending() {
		job, err := req.Job()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := o3.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, o3, rec.ID)
	}
	o3.Close()
	j3.Close()
	if pend := journalAt(t, path).Pending(); len(pend) != 0 {
		t.Fatalf("pending after replay = %d, want 0", len(pend))
	}
}

// TestJournalEndBeforeSubmit: submit journals after it releases the
// orchestrator's lock, so an instant job's end line can land before its
// submit line. The balance is signed: the pair still cancels, a second
// submit is still pending, and an end whose submit never landed leaves
// nothing behind.
func TestJournalEndBeforeSubmit(t *testing.T) {
	req := RequestOf(quickJob("403.gcc"))
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	line := func(ev journalEvent) string {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		return string(data) + "\n"
	}
	submit := line(journalEvent{Op: "submit", ID: "job-000001", Key: key, Request: &req})
	end := line(journalEvent{Op: "end", ID: "job-000001", Key: key, Status: StatusDone})
	for _, c := range []struct {
		name, file string
		pending    int
	}{
		{"end,submit", end + submit, 0},
		{"end,submit,submit", end + submit + submit, 1},
		{"end alone", end, 0},
	} {
		path := filepath.Join(t.TempDir(), "queue.journal")
		if err := os.WriteFile(path, []byte(c.file), 0o644); err != nil {
			t.Fatal(err)
		}
		j := journalAt(t, path)
		pend := j.Pending()
		j.Close()
		if len(pend) != c.pending {
			t.Errorf("%s: %d pending, want %d", c.name, len(pend), c.pending)
		}
		if c.pending == 1 && !reflect.DeepEqual(pend[0], req) {
			t.Errorf("%s: pending request = %+v, want %+v", c.name, pend[0], req)
		}
	}
}

// TestJournalRekeysStaleSubmits: a journal written before a KeySchema
// bump holds submit lines under the old key. Reopening re-keys them
// through Request.Key, so the job resumes under the current key and its
// end line balances the compacted submit.
func TestJournalRekeysStaleSubmits(t *testing.T) {
	const v2Key = "48935bf1d1b2baf8decb6842d930296ce3b75bd66e1341a12844b8f3805b5c92" // quickJob("403.gcc") under lnuca-job-v2
	job, err := quickJob("403.gcc").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	req := RequestOf(job)
	line, err := json.Marshal(journalEvent{Op: "submit", ID: "job-000001", Key: v2Key, Request: &req})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "queue.journal")
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	j := journalAt(t, path)
	if pend := j.Pending(); len(pend) != 1 || !reflect.DeepEqual(pend[0], req) {
		t.Fatalf("pending = %+v, want the stale submit's request", pend)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var compacted journalEvent
	if err := json.Unmarshal(raw, &compacted); err != nil || compacted.Key != job.Key() {
		t.Fatalf("compacted line %q: key %s, want %s (%v)", raw, compacted.Key, job.Key(), err)
	}

	o := New(Config{Workers: 1, Journal: j, Run: countingRun(&sync.Mutex{}, new(int))})
	rec, err := o.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Key != job.Key() {
		t.Fatalf("resumed under key %s, want %s", rec.Key, job.Key())
	}
	waitDone(t, o, rec.ID)
	o.Close()
	j.Close()
	if pend := journalAt(t, path).Pending(); len(pend) != 0 {
		t.Fatalf("resumed job still pending after it finished: %+v", pend)
	}
}

// TestJournalExplicitCancelNotResurrected: an API cancel is a user
// decision and must be journaled — the job stays gone after a restart.
func TestJournalExplicitCancelNotResurrected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.journal")
	j := journalAt(t, path)
	release := make(chan struct{})
	started := make(chan struct{})
	o := New(Config{Workers: 1, Journal: j, Run: func(ctx context.Context, job Job, _ func(uint64, uint64)) (*JobResult, error) {
		close(started)
		<-release
		return stubResult(job), nil
	}})
	blocker, _ := o.Submit(quickJob("403.gcc"))
	<-started
	victim, _ := o.Submit(quickJob("429.mcf"))
	if _, ok := o.Cancel(victim.ID); !ok {
		t.Fatal("cancel lost the job")
	}
	close(release)
	waitDone(t, o, blocker.ID)
	o.Close()
	j.Close()

	if pend := journalAt(t, path).Pending(); len(pend) != 0 {
		t.Fatalf("canceled job resurrected: pending = %+v", pend)
	}
}

// TestJournalCachedReplayBalances: a pending entry whose result landed
// in the cache before the restart is served as a cache hit on replay —
// and must still clear from the journal.
func TestJournalCachedReplayBalances(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.journal")
	cache := NewCache(0, filepath.Join(dir, "cache"))

	// Seed a pending entry by hand, as if the daemon died mid-job...
	j := journalAt(t, path)
	job, err := quickJob("403.gcc").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	j.submitted("job-000001", job.Key(), RequestOf(job))
	j.Close()
	// ...but its result had already been published.
	cache.Put(job.Key(), stubResult(job))

	j2 := journalAt(t, path)
	if len(j2.Pending()) != 1 {
		t.Fatalf("pending = %d, want 1", len(j2.Pending()))
	}
	o := New(Config{Workers: 1, Cache: cache, Journal: j2, Run: countingRun(&sync.Mutex{}, new(int))})
	rec, err := o.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Cached {
		t.Fatalf("replayed job not served from cache: %+v", rec)
	}
	o.Close()
	j2.Close()
	if pend := journalAt(t, path).Pending(); len(pend) != 0 {
		t.Fatalf("cache-hit replay left pending = %d, want 0", len(pend))
	}
}

// TestJournalWarmSubmitsAppendNothing: a cache hit that balances no
// journaled submission writes no end event, so warm submits neither
// grow the file nor pay its fsync — the journal's size tracks the live
// queue.
func TestJournalWarmSubmitsAppendNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.journal")
	j := journalAt(t, path)
	defer j.Close()
	cache := NewCache(0, "")
	o := New(Config{Workers: 1, Cache: cache, Journal: j, Run: countingRun(&sync.Mutex{}, new(int))})
	defer o.Close()

	job, err := quickJob("403.gcc").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(job.Key(), stubResult(job))
	for i := 0; i < 8; i++ {
		rec, err := o.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Cached {
			t.Fatalf("warm submit %d missed the cache: %+v", i, rec)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("8 warm submits grew an empty journal to %d bytes", fi.Size())
	}
}

// TestJournalToleratesTruncatedLine: a crash can cut the final append
// short; the loader must keep every intact line.
func TestJournalToleratesTruncatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.journal")
	j := journalAt(t, path)
	job, _ := quickJob("403.gcc").Normalize()
	j.submitted("job-000001", job.Key(), RequestOf(job))
	j.Close()
	// Simulate a torn write: half a JSON object at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"end","key":"` + job.Key()[:12])
	f.Close()

	pend := journalAt(t, path).Pending()
	if len(pend) != 1 || pend[0].Benchmark != "403.gcc" {
		t.Fatalf("pending through torn tail = %+v, want the one intact submit", pend)
	}
}

// TestJournalCompaction: reopening shrinks the file to the pending set.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.journal")
	j := journalAt(t, path)
	for i, bench := range []string{"403.gcc", "429.mcf", "434.zeusmp"} {
		job, _ := quickJob(bench).Normalize()
		id := "job-00000" + string(rune('1'+i))
		j.submitted(id, job.Key(), RequestOf(job))
		j.ended(id, job.Key(), StatusDone)
	}
	j.Close()
	grown, _ := os.Stat(path)

	j2 := journalAt(t, path)
	defer j2.Close()
	if len(j2.Pending()) != 0 {
		t.Fatalf("pending = %d, want 0", len(j2.Pending()))
	}
	compacted, _ := os.Stat(path)
	if compacted.Size() != 0 {
		t.Fatalf("compacted journal holds %d bytes (was %d), want 0", compacted.Size(), grown.Size())
	}
}

// TestQueueCapBackpressure: with QueueCap set, submissions beyond the
// cap fail fast with ErrQueueFull, while coalesced and cached
// submissions still land.
func TestQueueCapBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1) // buffered: the stub's non-blocking send must not be lost when it runs before the receive below
	o := New(Config{Workers: 1, QueueCap: 2, Run: func(ctx context.Context, job Job, _ func(uint64, uint64)) (*JobResult, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return stubResult(job), nil
	}})
	defer func() { close(release); o.Close() }()

	running, err := o.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := o.Submit(quickJob("429.mcf")); err != nil {
		t.Fatalf("queue slot 1: %v", err)
	}
	if _, err := o.Submit(quickJob("434.zeusmp")); err != nil {
		t.Fatalf("queue slot 2: %v", err)
	}
	if _, err := o.Submit(quickJob("482.sphinx3")); err != ErrQueueFull {
		t.Fatalf("over-cap submit err = %v, want ErrQueueFull", err)
	}
	// A duplicate of something in flight coalesces — no queue slot needed.
	dup, err := o.Submit(quickJob("403.gcc"))
	if err != nil || !dup.Coalesced || dup.ID != running.ID {
		t.Fatalf("coalesced submit over full queue: rec=%+v err=%v", dup, err)
	}
	// Counters still balance under rejection.
	m := o.Metrics()
	if m.Submitted != m.Coalesced+m.Cached+m.Executed+m.Failed+m.Canceled+uint64(m.QueueDepth)+uint64(m.Running) {
		t.Fatalf("counters out of balance: %+v", m)
	}
}

// TestRateLimiter pins the token-bucket arithmetic with a synthetic
// clock.
func TestRateLimiter(t *testing.T) {
	base := time.Unix(1000, 0)
	l := newRateLimiter(2, 3) // 2 tokens/s, burst 3

	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("a", base); !ok {
			t.Fatalf("burst request %d throttled", i)
		}
	}
	ok, wait := l.allow("a", base)
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry hint = %v, want (0, 1s]", wait)
	}
	// Other clients are independent.
	if ok, _ := l.allow("b", base); !ok {
		t.Fatal("fresh client throttled by a's bucket")
	}
	// Half a second refills one token at 2 rps.
	if ok, _ := l.allow("a", base.Add(500*time.Millisecond)); !ok {
		t.Fatal("refilled token not granted")
	}
	if ok, _ := l.allow("a", base.Add(500*time.Millisecond)); ok {
		t.Fatal("second request on one refilled token allowed")
	}
}

// TestServerQueueFullAnd429 drives backpressure end to end through the
// HTTP layer: a full queue answers 429 with a Retry-After hint.
func TestServerQueueFullAnd429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1) // buffered: the stub's non-blocking send must not be lost when it runs before the receive below
	o := New(Config{Workers: 1, QueueCap: 1, Run: func(ctx context.Context, job Job, _ func(uint64, uint64)) (*JobResult, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return stubResult(job), nil
	}})
	defer func() { close(release); o.Close() }()
	srv := NewServer(o)

	post := func(bench string) (int, string) {
		body := strings.NewReader(`{"hierarchy":"conventional","benchmark":"` + bench + `","mode":"quick","seed":1}`)
		req := httptest.NewRequest("POST", "/v1/jobs", body)
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, req)
		return rw.Code, rw.Header().Get("Retry-After")
	}
	if code, _ := post("403.gcc"); code != 202 {
		t.Fatalf("first submit = %d, want 202", code)
	}
	<-started
	if code, _ := post("429.mcf"); code != 202 {
		t.Fatalf("second submit (fills queue) = %d, want 202", code)
	}
	code, retry := post("434.zeusmp")
	if code != 429 {
		t.Fatalf("over-cap submit = %d, want 429", code)
	}
	if retry == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestServerSubmitRateLimit: the per-client limiter throttles POSTs but
// never reads.
func TestServerSubmitRateLimit(t *testing.T) {
	o := New(Config{Workers: 1, Run: countingRun(&sync.Mutex{}, new(int))})
	defer o.Close()
	srv := NewServer(o)
	srv.SetSubmitLimit(1, 2) // 1 rps, burst 2

	post := func() int {
		body := strings.NewReader(`{"hierarchy":"conventional","benchmark":"403.gcc","mode":"quick","seed":1}`)
		req := httptest.NewRequest("POST", "/v1/jobs", body)
		req.RemoteAddr = "192.0.2.1:50000"
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, req)
		return rw.Code
	}
	first := post()
	if first != 202 && first != 200 {
		t.Fatalf("first submit = %d", first)
	}
	second := post()
	if second != 202 && second != 200 {
		t.Fatalf("second submit = %d", second)
	}
	if code := post(); code != 429 {
		t.Fatalf("third submit inside burst window = %d, want 429", code)
	}
	// Reads are unthrottled.
	req := httptest.NewRequest("GET", "/v1/jobs", nil)
	req.RemoteAddr = "192.0.2.1:50001"
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	if rw.Code != 200 {
		t.Fatalf("GET under rate limit = %d, want 200", rw.Code)
	}
}
