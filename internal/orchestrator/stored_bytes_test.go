package orchestrator

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/stats"
)

// serve answers one request through the API handler, no listener.
func serve(t *testing.T, api http.Handler, method, target string, body interface{}, want int, dst interface{}) []byte {
	t.Helper()
	var in bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&in).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(method, target, &in))
	if rec.Code != want {
		t.Fatalf("%s %s: HTTP %d, want %d: %s", method, target, rec.Code, want, rec.Body)
	}
	if dst != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), dst); err != nil {
			t.Fatalf("%s %s: %v", method, target, err)
		}
	}
	return rec.Body.Bytes()
}

// TestCacheHitServesStoredBytes: a result is encoded once, when it is put,
// and every hit after that — a resubmission, a direct lookup, a cell of a
// sweep — sends the bytes of its store file, whether the entry got into
// memory by Put or by load; a cache without a store sends the same bytes
// by encoding them; and a file that carries Phases loses them on load and
// is not served as it stands.
func TestCacheHitServesStoredBytes(t *testing.T) {
	mode := exp.Mode{Name: "tiny", Warmup: 500, Measure: 3000}
	jobs := []Job{
		{Kind: hier.Conventional, Benchmark: "403.gcc"},
		{Kind: hier.LNUCAL3, Levels: 3, Benchmark: "403.gcc"},
		{Kind: hier.DNUCAOnly, Benchmark: "403.gcc"},
		{Kind: hier.LNUCADNUCA, Levels: 3, Benchmark: "403.gcc"},
		{Kind: hier.LNUCAL3, Levels: 3, Cores: 2, Mix: "403.gcc,470.lbm"},
	}
	dir := t.TempDir()
	disk, memory := NewCache(0, dir), NewCache(0, "")
	engine := NewEngine(disk, nil)
	files := make([][]byte, len(jobs))
	for i := range jobs {
		jobs[i].Mode, jobs[i].Seed = mode, 1
		job, err := jobs[i].Normalize()
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
		fresh, cached, err := engine.Do(context.Background(), job, nil)
		if err != nil || cached {
			t.Fatalf("%s: cached=%v err=%v", job.Hierarchy, cached, err)
		}
		if files[i], err = os.ReadFile(filepath.Join(dir, job.Key()+".json")); err != nil {
			t.Fatal(err)
		}
		// The fresh record is the caller's: it keeps its Phases, encodes in
		// full, and holds the statistics the file holds.
		full, err := json.Marshal(fresh)
		var back, stored JobResult
		if err != nil || json.Unmarshal(full, &back) != nil || json.Unmarshal(files[i], &stored) != nil {
			t.Fatalf("%s: fresh record does not round-trip (%v)", job.Hierarchy, err)
		}
		if fresh.Phases == nil || fresh.stored != nil || back.Phases == nil || *back.Phases != *fresh.Phases || stored.Phases != nil {
			t.Errorf("%s: Phases belong on the fresh record only, stored bytes on the entry only", job.Hierarchy)
		}
		if a, b := statsBytes(t, back.Stats), statsBytes(t, stored.Stats); !bytes.Equal(a, b) {
			t.Errorf("%s: fresh record's stats differ from the stored ones", job.Hierarchy)
		}
		memory.Put(job.Key(), fresh)
	}

	hits := func(name string, cache *Cache, wantStored bool) {
		t.Helper()
		orch := New(Config{Workers: 1, Cache: cache})
		defer orch.Close()
		api := NewServer(orch)
		sid, _, err := orch.SubmitSweep(jobs)
		if err != nil {
			t.Fatal(err)
		}
		var sweep struct {
			Jobs []struct {
				Key    string
				Cached bool
				Result json.RawMessage
			}
		}
		serve(t, api, http.MethodGet, "/v1/sweeps/"+sid, nil, http.StatusOK, &sweep)
		for i, job := range jobs {
			entry, ok := cache.Get(job.Key())
			if !ok || entry.Phases != nil || (entry.stored != nil) != wantStored || wantStored && !bytes.Equal(entry.stored, files[i]) {
				t.Fatalf("%s, %s: entry found=%v, stored bytes kept=%v (want %v, and the file's)", name, job.Hierarchy, ok, ok && entry.stored != nil, wantStored)
			}
			req := RequestOf(job)
			var rec struct {
				Cached bool
				Result json.RawMessage
			}
			serve(t, api, http.MethodPost, "/v1/jobs", req, http.StatusOK, &rec)
			if !rec.Cached || !bytes.Equal(rec.Result, files[i]) {
				t.Errorf("%s, %s: POST /v1/jobs cached=%v, result differs from %s.json:\n got %s\nwant %s", name, job.Hierarchy, rec.Cached, job.Key(), rec.Result, files[i])
			}
			q := url.Values{"hierarchy": {req.Hierarchy}, "seed": {"1"},
				"warmup": {strconv.FormatUint(req.Warmup, 10)}, "measure": {strconv.FormatUint(req.Measure, 10)}}
			for k, v := range map[string]string{"benchmark": req.Benchmark, "mix": req.Mix} {
				if v != "" {
					q.Set(k, v)
				}
			}
			for k, v := range map[string]int{"levels": req.Levels, "cores": req.Cores} {
				if v != 0 {
					q.Set(k, strconv.Itoa(v))
				}
			}
			body := serve(t, api, http.MethodGet, "/v1/results?"+q.Encode(), nil, http.StatusOK, nil)
			if !bytes.Equal(body, append(append([]byte(nil), files[i]...), '\n')) {
				t.Errorf("%s, %s: GET /v1/results body differs from %s.json", name, job.Hierarchy, job.Key())
			}
			if cell := sweep.Jobs[i]; cell.Key != job.Key() || !cell.Cached || !bytes.Equal(cell.Result, files[i]) {
				t.Errorf("%s, %s: sweep cell %d (cached=%v) differs from %s.json", name, job.Hierarchy, i, cell.Cached, job.Key())
			}
		}
	}
	hits("entries put", disk, true)
	hits("entries loaded", NewCache(0, dir), true)
	hits("no store", memory, false)

	// A file Put did not write: the first entry with a phases member.
	foreign := t.TempDir()
	edited := append(bytes.TrimSuffix(files[0], []byte("}")), `,"phases":{"build_seconds":1,"warmup_seconds":2,"measure_seconds":3}}`...)
	var check JobResult
	if err := json.Unmarshal(edited, &check); err != nil || check.Phases == nil || check.Phases.MeasureSeconds != 3 {
		t.Fatalf("the edited file should decode with Phases (%v)", err)
	}
	if err := os.WriteFile(filepath.Join(foreign, jobs[0].Key()+".json"), edited, 0o600); err != nil {
		t.Fatal(err)
	}
	jobs, files = jobs[:1], files[:1]
	hits("entry with phases on disk", NewCache(0, foreign), false)
}

func statsBytes(t *testing.T, s *stats.Set) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCachePutMarshalFailure: a result that cannot be encoded is still
// memoized for this process; it counts as a failed store write and has no
// stored bytes to serve.
func TestCachePutMarshalFailure(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(0, dir)
	res := stubResult(quickJob("403.gcc"))
	res.Stats = stats.NewSet()
	res.Stats.SetScalar("core.ipc", math.NaN())
	c.Put("k", res)
	got, ok := c.Get("k")
	if !ok || got.stored != nil || got.Cycles != res.Cycles {
		t.Fatalf("entry found=%v with stored bytes=%v; want it in memory without any", ok, ok && got.stored != nil)
	}
	if n := c.writeErrs.Load(); n != 1 {
		t.Errorf("write errors = %d, want 1", n)
	}
	if _, err := json.Marshal(got); err == nil {
		t.Error("a NaN scalar encoded")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("store holds %d files (%v), want none", len(entries), err)
	}
	c.Put("ok", stubResult(quickJob("429.mcf")))
	if n := c.writeErrs.Load(); n != 0 {
		t.Errorf("write errors after a good put = %d, want 0", n)
	}
}
