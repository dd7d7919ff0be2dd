package orchestrator

// Fuzz targets for the decoders that face a network or a disk: the run
// and sweep request bodies of POST /v1/jobs and /v1/sweeps, and the queue
// journal's replay. CI runs each for a few seconds; the seeds are real
// bytes — the golden jobs' requests as RequestOf renders them, and a
// journal as a Journal writes it.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/exp"
	"repro/internal/hier"
)

// goldenRequests are the six golden jobs of TestJobKeyGolden plus a trace
// replay, as requests.
func goldenRequests(tb testing.TB) []Request {
	tb.Helper()
	jobs := []Job{
		{Kind: hier.Conventional, Benchmark: "403.gcc", Mode: exp.Quick, Seed: 1},
		{Kind: hier.LNUCAL3, Levels: 3, Benchmark: "429.mcf", Mode: exp.Full, Seed: 7},
		{Kind: hier.DNUCAOnly, Benchmark: "470.lbm", Mode: exp.Mode{Name: "custom", Warmup: 500, Measure: 3000}, Seed: 1},
		{Kind: hier.LNUCADNUCA, Levels: 2, Benchmark: "482.sphinx3", Mode: exp.Quick, Seed: 3, Priority: 5},
		{Kind: hier.LNUCAL3, Cores: 4, Mix: "mixed", Mode: exp.Quick, Seed: 1},
		{Kind: hier.Conventional, Cores: 2, Mix: "403.gcc,470.lbm", Mode: exp.Quick, Seed: 5},
		{Kind: hier.LNUCAL3, Trace: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"},
	}
	reqs := make([]Request, len(jobs))
	for i, j := range jobs {
		n, err := j.Normalize()
		if err != nil {
			tb.Fatal(err)
		}
		reqs[i] = RequestOf(n)
	}
	return reqs
}

// FuzzRequestJob: whatever bytes decode as a Request, Job never panics;
// and when it accepts the request, the job renders back to a request of
// the same content key and normalization is idempotent.
func FuzzRequestJob(f *testing.F) {
	for _, r := range goldenRequests(f) {
		data, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"hierarchy":"LN","benchmark":"403.gcc","levels":7}`))
	f.Add([]byte(`{"hierarchy":"ln+dn","cores":3,"mix":"random","seed":18446744073709551615,"warmup":1}`))
	f.Add([]byte(`{"schema":"lnuca-run-v2","hierarchy":"conv","benchmark":"403.gcc"}`))
	f.Add([]byte(`{"hierarchy":"ln+l3","benchmark":"403.gcc","machine":{"ln.link_buf":1,"ln.tile_kb":4}}`))
	f.Add([]byte(`{"hierarchy":"ln+dn","cores":2,"mix":"fp","machine":{"ln.routing":1,"ln.link_buf":2}}`))
	f.Add([]byte(`{"hierarchy":"conventional","benchmark":"470.lbm","machine":{"ln.tile_kb":3,"l2.mshr":16}}`))
	f.Add([]byte(`{"hierarchy":"ln","trace":"9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08","machine":{"ln.link_buf":8.5}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Request
		if json.Unmarshal(data, &r) != nil {
			return
		}
		j, err := r.Job()
		if err != nil {
			return
		}
		back, err := RequestOf(j).Job()
		if err != nil {
			t.Fatalf("%s: RequestOf(job) no longer parses: %v", data, err)
		}
		if back.Key() != j.Key() {
			t.Fatalf("%s: key %s, after RequestOf %s", data, j.Key(), back.Key())
		}
		n1, err := r.Normalize()
		if err != nil {
			t.Fatalf("%s: Job accepts, Normalize refuses: %v", data, err)
		}
		if n2, err := n1.Normalize(); err != nil || !reflect.DeepEqual(n2, n1) {
			t.Fatalf("%s: Normalize is not idempotent:\n once  %+v\n twice %+v (%v)", data, n1, n2, err)
		}
	})
}

// FuzzSweepRequestJobs: whatever bytes decode as a SweepRequest, Jobs
// never panics and never expands past the cell bound.
func FuzzSweepRequestJobs(f *testing.F) {
	f.Add([]byte(`{"hierarchies":["conventional","ln+l3"],"levels":[2,3,4],"benchmarks":["403.gcc","429.mcf"],"mode":"quick","seed":1}`))
	f.Add([]byte(`{"hierarchies":["dn-4x8","ln+dn-4x8"],"levels":[2,3,4],"warmup":500,"measure":3000,"priority":2}`))
	f.Add([]byte(`{"hierarchies":["ln","ln","ln","ln"],"levels":[3,3,3,3,3,3,3,3]}`))
	f.Add([]byte(`{"schema":"lnuca-run-v1","hierarchies":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s SweepRequest
		if json.Unmarshal(data, &s) != nil {
			return
		}
		jobs, err := s.Jobs()
		if err != nil {
			return
		}
		if len(jobs) == 0 || len(jobs) > maxSweepCells {
			t.Fatalf("%s: expanded to %d cells (bound %d)", data, len(jobs), maxSweepCells)
		}
	})
}

// FuzzLoadPending: whatever bytes the journal file holds, replay does
// not panic and reports a torn tail inside the file, and what OpenJournal
// compacts the file to replays to the same pending set.
func FuzzLoadPending(f *testing.F) {
	// A real journal: three jobs submitted, one finished before its
	// submit line landed, one canceled and resubmitted.
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, err := OpenJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	reqs := goldenRequests(f)
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		if keys[i], err = r.Key(); err != nil {
			f.Fatal(err)
		}
	}
	j.ended("job-000001", keys[0], StatusDone)
	j.submitted("job-000001", keys[0], reqs[0])
	j.submitted("job-000002", keys[1], reqs[1])
	j.submitted("job-000003", keys[4], reqs[4])
	j.ended("job-000003", keys[4], StatusCanceled)
	j.probe()
	j.submitted("job-000004", keys[4], reqs[4])
	j.Close()
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)-7]) // torn final line
	f.Add([]byte("{\"op\":\"end\",\"key\":\"k\"}\n\n{\"op\":\"submit\",\"key\":\"k\"}\nnot json\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		pending, torn := loadPending(data)
		if torn < -1 || torn > int64(len(data)) {
			t.Fatalf("torn offset %d outside [-1, %d]", torn, len(data))
		}
		if len(pending) == 0 {
			return // nothing to compact, and an open costs two fsyncs
		}
		path := filepath.Join(t.TempDir(), "queue.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The first open loads the file as it is and compacts it to one
		// line per key the current schema accepts; the second loads that.
		want := []Request{}
		seen := map[string]bool{}
		for _, r := range pending {
			if key, err := r.Key(); err == nil && !seen[key] {
				seen[key] = true
				want = append(want, r)
			}
		}
		for pass, want := range [][]Request{pending, want} {
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("open %d: %v", pass+1, err)
			}
			got := j.Pending()
			j.Close()
			if !slices.EqualFunc(got, want, func(a, b Request) bool { return reflect.DeepEqual(a, b) }) {
				t.Fatalf("open %d: pending %+v, want %+v", pass+1, got, want)
			}
		}
	})
}
