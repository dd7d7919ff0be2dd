package orchestrator

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// syncCount reads how many fsyncs j has made.
func syncCount(j *Journal) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncs
}

// TestJournalCutToLastSyncReplaysFromCache: a finished job's end line is
// written without a sync, so a crash may lose it. Cut the file back to
// its last synced byte: the finished jobs are pending again, and
// replaying them is answered from the cache with no new run. The end line
// of a job canceled through the API was synced, and survives the cut.
func TestJournalCutToLastSyncReplaysFromCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.journal")
	cache := NewCache(0, filepath.Join(dir, "cache"))
	j := journalAt(t, path)
	release := make(chan struct{})
	started := make(chan struct{}, 3)
	o := New(Config{Workers: 1, Cache: cache, Journal: j, Run: func(ctx context.Context, job Job, _ func(uint64, uint64)) (*JobResult, error) {
		started <- struct{}{}
		<-release
		return stubResult(job), nil
	}})
	first, err := o.Submit(quickJob("403.gcc"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	second, err := o.Submit(quickJob("429.mcf"))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := o.Submit(quickJob("470.lbm"))
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := o.Cancel(victim.ID); !ok || rec.Status != StatusCanceled {
		t.Fatalf("cancel of the queued job: %+v %v", rec, ok)
	}
	// Every line so far was synced: three submits and the cancel.
	synced, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := syncCount(j); got != 4 {
		t.Fatalf("%d syncs for three submits and a cancel, want 4", got)
	}
	close(release)
	waitDone(t, o, first.ID)
	waitDone(t, o, second.ID)
	if got := syncCount(j); got != 4 {
		t.Fatalf("two jobs finishing made %d syncs, want none", got-4)
	}
	o.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Size() <= synced.Size() {
		t.Fatalf("the finished jobs wrote no end lines (%d bytes, %d synced)", grown.Size(), synced.Size())
	}

	// The crash: everything after the last sync is gone.
	if err := os.Truncate(path, synced.Size()); err != nil {
		t.Fatal(err)
	}
	j2 := journalAt(t, path)
	var pending []string
	for _, req := range j2.Pending() {
		pending = append(pending, req.Benchmark)
	}
	sort.Strings(pending)
	if want := []string{"403.gcc", "429.mcf"}; len(pending) != 2 || pending[0] != want[0] || pending[1] != want[1] {
		t.Fatalf("pending after the cut = %v, want the finished %v and not the canceled 470.lbm", pending, want)
	}
	runs := 0
	o2 := New(Config{Workers: 1, Cache: cache, Journal: j2, Run: countingRun(&sync.Mutex{}, &runs)})
	for _, req := range j2.Pending() {
		job, err := req.Job()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := o2.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Cached {
			t.Fatalf("replayed %s was not served from the cache: %+v", req.Benchmark, rec)
		}
	}
	o2.Close()
	j2.Close()
	if runs != 0 {
		t.Fatalf("replay ran %d jobs, want 0", runs)
	}
	if pend := journalAt(t, path).Pending(); len(pend) != 0 {
		t.Fatalf("after the cached replay pending = %d, want 0", len(pend))
	}
}

// TestJournalOneSyncPerRequest: POST /v1/sweeps writes one submit line
// per cell and syncs them once before its 202; POST /v1/jobs syncs its
// one line.
func TestJournalOneSyncPerRequest(t *testing.T) {
	j := journalAt(t, filepath.Join(t.TempDir(), "queue.journal"))
	defer j.Close()
	release := make(chan struct{})
	o := New(Config{Workers: 1, Journal: j, Run: func(ctx context.Context, job Job, _ func(uint64, uint64)) (*JobResult, error) {
		select {
		case <-release:
			return stubResult(job), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	defer o.Close()
	defer close(release)
	ts := httptest.NewServer(NewServer(o))
	defer ts.Close()
	post := func(path string, body interface{}) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s: HTTP %d", path, resp.StatusCode)
		}
	}

	post("/v1/sweeps", SweepRequest{
		Hierarchies: []string{"conventional", "ln+l3"},
		Levels:      []int{2, 3},
		Benchmarks:  []string{"403.gcc", "429.mcf", "470.lbm"},
		Seed:        1,
	})
	if got := syncCount(j); got != 1 {
		t.Fatalf("POST /v1/sweeps of 9 cells made %d syncs, want 1", got)
	}
	lines, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(lines, []byte("\n")); n != 9 {
		t.Fatalf("the sweep journaled %d lines, want 9", n)
	}
	post("/v1/jobs", Request{Hierarchy: "conventional", Benchmark: "482.sphinx3", Seed: 1})
	if got := syncCount(j); got != 2 {
		t.Fatalf("POST /v1/jobs made %d syncs, want 1", got-1)
	}
}
