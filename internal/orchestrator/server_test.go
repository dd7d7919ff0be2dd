package orchestrator

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTestServer wires an httptest server around a stub-backed
// orchestrator; simulated results are fabricated instantly.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Orchestrator) {
	t.Helper()
	if cfg.Run == nil {
		cfg.Run = func(ctx context.Context, j Job, _ func(uint64, uint64)) (*JobResult, error) {
			return stubResult(j), nil
		}
	}
	o := New(cfg)
	ts := httptest.NewServer(NewServer(o))
	t.Cleanup(func() { ts.Close(); o.Close() })
	return ts, o
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, dst interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPJobRoundTrip is the end-to-end API test: POST /v1/jobs, poll
// GET /v1/jobs/{id} until done, check the result JSON, then confirm the
// resubmission is a cache hit and /v1/results serves it directly.
func TestHTTPJobRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]interface{}{
		"hierarchy": "ln+l3",
		"levels":    3,
		"benchmark": "403.gcc",
		"mode":      "quick",
		"seed":      1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var rec JobRecord
	decodeBody(t, resp, &rec)
	if rec.ID == "" || rec.Status == "" {
		t.Fatalf("bad record: %+v", rec)
	}

	deadline := time.Now().Add(10 * time.Second)
	for !rec.Status.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, r, &rec)
		time.Sleep(5 * time.Millisecond)
	}
	if rec.Status != StatusDone {
		t.Fatalf("final status %s (%s)", rec.Status, rec.Error)
	}
	if rec.Result == nil || rec.Result.Config != "LN3-144KB" || rec.Result.IPC <= 0 {
		t.Fatalf("result = %+v", rec.Result)
	}
	if rec.Progress != 1 {
		t.Errorf("done job progress = %v", rec.Progress)
	}

	// Resubmission: same content, served from cache with 200.
	resp2 := postJSON(t, ts.URL+"/v1/jobs", map[string]interface{}{
		"hierarchy": "ln+l3", "benchmark": "403.gcc", "seed": 1,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status = %d", resp2.StatusCode)
	}
	var rec2 JobRecord
	decodeBody(t, resp2, &rec2)
	if !rec2.Cached || rec2.Result == nil {
		t.Fatalf("resubmission not cached: %+v", rec2)
	}

	// Direct cache lookup.
	r3, err := http.Get(ts.URL + "/v1/results?hierarchy=ln%2bl3&levels=3&benchmark=403.gcc&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", r3.StatusCode)
	}
	var res JobResult
	decodeBody(t, r3, &res)
	if res.Config != "LN3-144KB" {
		t.Fatalf("results payload = %+v", res)
	}
	// And a miss 404s.
	r4, _ := http.Get(ts.URL + "/v1/results?hierarchy=dn-4x8&benchmark=403.gcc")
	if r4.StatusCode != http.StatusNotFound {
		t.Fatalf("miss status = %d", r4.StatusCode)
	}
	r4.Body.Close()
	// An invalid configuration is a 400, not a masked cache miss.
	r5, _ := http.Get(ts.URL + "/v1/results?hierarchy=ln%2bl3&levels=9&benchmark=403.gcc")
	if r5.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config status = %d", r5.StatusCode)
	}
	r5.Body.Close()
}

func TestHTTPSweepAndMetrics(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	ts, _ := newTestServer(t, Config{Workers: 4, Run: countingRun(&mu, &runs)})

	sweep := map[string]interface{}{
		"hierarchies": []string{"conventional", "ln+l3", "dn-4x8"},
		"benchmarks":  []string{"403.gcc", "429.mcf", "434.zeusmp", "482.sphinx3"},
		"mode":        "quick",
	}
	var submitted struct {
		ID   string      `json:"id"`
		Jobs []JobRecord `json:"jobs"`
	}
	resp := postJSON(t, ts.URL+"/v1/sweeps", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	decodeBody(t, resp, &submitted)
	if len(submitted.Jobs) != 12 {
		t.Fatalf("sweep expanded to %d jobs, want 12", len(submitted.Jobs))
	}

	var st SweepStatus
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/sweeps/" + submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, r, &st)
		if st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.ByState[StatusDone] != 12 {
		t.Fatalf("by_state = %v", st.ByState)
	}

	// Resubmit: all cells must come back cached, with no new runs.
	resp = postJSON(t, ts.URL+"/v1/sweeps", sweep)
	decodeBody(t, resp, &submitted)
	for _, j := range submitted.Jobs {
		if !j.Cached {
			t.Errorf("cell %s/%s not cached on resubmit", j.Job.Hierarchy, j.Job.Benchmark)
		}
	}
	mu.Lock()
	if runs != 12 {
		t.Errorf("runs = %d, want 12", runs)
	}
	mu.Unlock()

	var m Metrics
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, r, &m)
	if m.Executed != 12 || m.CacheHits != 12 || m.CacheMisses != 12 {
		t.Errorf("metrics = %+v", m)
	}
	if m.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %v", m.CacheHitRate)
	}
}

func TestHTTPCancelAndErrors(t *testing.T) {
	release := make(chan struct{})
	ts, _ := newTestServer(t, Config{Workers: 1, Run: func(ctx context.Context, j Job, _ func(uint64, uint64)) (*JobResult, error) {
		select {
		case <-release:
			return stubResult(j), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	defer close(release)

	var rec JobRecord
	decodeBody(t, postJSON(t, ts.URL+"/v1/jobs", map[string]interface{}{
		"hierarchy": "conventional", "benchmark": "403.gcc",
	}), &rec)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+rec.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, _ := http.Get(ts.URL + "/v1/jobs/" + rec.ID)
		decodeBody(t, r, &rec)
		if rec.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec.Status != StatusCanceled {
		t.Fatalf("status after cancel = %s", rec.Status)
	}

	// Error paths: bad hierarchy, bad benchmark, unknown job, bad method.
	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]interface{}{
		"hierarchy": "l9", "benchmark": "403.gcc",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad hierarchy status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]interface{}{
		"hierarchy": "conventional", "benchmark": "999.vapor",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad benchmark status = %d", resp.StatusCode)
	}
	r, _ := http.Get(ts.URL + "/v1/jobs/job-999999")
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d", r.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/metrics", "application/json", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d", resp.StatusCode)
	}
}

func TestHTTPHealthzAndBenchmarks(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	var h map[string]interface{}
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, r, &h)
	if h["status"] != "ok" {
		t.Errorf("healthz = %v", h)
	}
	for _, key := range []string{"version", "commit", "go_version"} {
		if v, _ := h[key].(string); v == "" {
			t.Errorf("healthz missing %s: %v", key, h)
		}
	}
	if h["key_schema"] != KeySchema {
		t.Errorf("healthz key_schema = %v, want %s", h["key_schema"], KeySchema)
	}
	if up, ok := h["uptime_seconds"].(float64); !ok || up < 0 {
		t.Errorf("healthz uptime = %v", h["uptime_seconds"])
	}
	var b struct {
		Benchmarks []string `json:"benchmarks"`
	}
	r, err = http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, r, &b)
	if len(b.Benchmarks) != 28 {
		t.Errorf("catalog size = %d, want 28", len(b.Benchmarks))
	}
}

// TestHTTPMetricsNegotiation: /metrics stays a JSON snapshot by default
// (the Go client depends on that), and serves Prometheus text when the
// caller asks for it via Accept or ?format=.
func TestHTTPMetricsNegotiation(t *testing.T) {
	reg := obs.NewRegistry()
	ts, o := newTestServer(t, Config{Workers: 1, Registry: reg})

	rec, err := o.Submit(quickJob("429.mcf"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, o, rec.ID)

	get := func(url, accept string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	// Default: JSON, decodable into Metrics.
	resp, body := get(ts.URL+"/metrics", "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default content type = %q", ct)
	}
	var m Metrics
	if err := json.Unmarshal([]byte(body), &m); err != nil || m.Submitted != 1 {
		t.Errorf("default /metrics not the JSON snapshot: %v %+v", err, m)
	}

	// A Prometheus scraper's Accept header selects the text format.
	promAccept := "text/plain;version=0.0.4;q=0.5,*/*;q=0.1"
	resp, body = get(ts.URL+"/metrics", promAccept)
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("negotiated content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE lnuca_jobs_submitted_total counter",
		"lnuca_jobs_submitted_total 1",
		"lnuca_runs_executed_total 1",
		"lnuca_job_run_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}

	// ?format= overrides the Accept header in both directions.
	resp, body = get(ts.URL+"/metrics?format=prometheus", "application/json")
	if resp.Header.Get("Content-Type") != obs.ContentType || !strings.Contains(body, "lnuca_jobs_submitted_total") {
		t.Errorf("format=prometheus ignored: %q", resp.Header.Get("Content-Type"))
	}
	resp, _ = get(ts.URL+"/metrics?format=json", promAccept)
	if resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("format=json ignored: %q", resp.Header.Get("Content-Type"))
	}

	// Without a registry, an explicit Prometheus request is a clean 406
	// rather than a silently different JSON body.
	ts2, _ := newTestServer(t, Config{Workers: 1})
	resp, _ = get(ts2.URL+"/metrics?format=prometheus", "")
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Errorf("no-registry prometheus status = %d", resp.StatusCode)
	}
}

func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/healthz":          "/healthz",
		"/metrics":          "/metrics",
		"/v1/jobs":          "/v1/jobs",
		"/v1/jobs/job-7":    "/v1/jobs/{id}",
		"/v1/sweeps/sw-1":   "/v1/sweeps/{id}",
		"/v1/traces/abc123": "/v1/traces/{id}",
		"/v1/benchmarks":    "/v1/benchmarks",
		"/favicon.ico":      "other",
		"/v2/jobs":          "other",
	}
	for path, want := range cases {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if got := RouteLabel(req); got != want {
			t.Errorf("RouteLabel(%s) = %q, want %q", path, got, want)
		}
	}
}

// TestHTTPRealSimulation runs one genuine (tiny) simulation through the
// full HTTP stack, proving the service wiring down to the kernel.
func TestHTTPRealSimulation(t *testing.T) {
	o := New(Config{Workers: 2})
	ts := httptest.NewServer(NewServer(o))
	defer func() { ts.Close(); o.Close() }()

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]interface{}{
		"hierarchy": "conventional",
		"benchmark": "403.gcc",
		"warmup":    500,
		"measure":   3000,
		"seed":      1,
	})
	var rec JobRecord
	decodeBody(t, resp, &rec)
	deadline := time.Now().Add(30 * time.Second)
	for !rec.Status.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("simulation never finished")
		}
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", ts.URL, rec.ID))
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, r, &rec)
		time.Sleep(10 * time.Millisecond)
	}
	if rec.Status != StatusDone {
		t.Fatalf("final = %s (%s)", rec.Status, rec.Error)
	}
	if rec.Result.IPC <= 0.05 || rec.Result.IPC > 4 {
		t.Errorf("IPC = %v", rec.Result.IPC)
	}
	if rec.Result.Stats == nil || rec.Result.Stats.Counter("core.committed") == 0 {
		t.Error("stats not served")
	}
}

// TestSweepCellBound: the lists of a sweep multiply, so a 2 KB body of
// repeated hierarchies and levels names millions of cells. It is refused
// by count, before a cell is allocated or anything is recorded; the
// paper's two matrices together (224 cells) still go through.
func TestSweepCellBound(t *testing.T) {
	big := SweepRequest{}
	for i := 0; i < 300; i++ {
		big.Hierarchies = append(big.Hierarchies, "ln")
		big.Levels = append(big.Levels, 3)
	}
	const cells = "2520000" // 300 x 300 x the 28-benchmark suite

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := big.Expand()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), cells) {
		t.Fatalf("Expand of a %s-cell sweep: err = %v, want a refusal naming the count", cells, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; elapsed > 50*time.Millisecond || grew > 1<<20 {
		t.Errorf("refusal took %v and allocated %d bytes: the sweep was expanded first", elapsed, grew)
	}

	path := filepath.Join(t.TempDir(), "queue.journal")
	ts, o := newTestServer(t, Config{Workers: 2, Journal: journalAt(t, path)})
	resp := postJSON(t, ts.URL+"/v1/sweeps", big)
	var apiErr struct{ Error string }
	decodeBody(t, resp, &apiErr)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, cells) {
		t.Fatalf("oversized sweep: %d %q, want 400 naming %s cells", resp.StatusCode, apiErr.Error, cells)
	}
	if n := len(o.List("")); n != 0 {
		t.Errorf("refused sweep left %d job records", n)
	}
	if _, ok := o.Sweep("sweep-0001"); ok {
		t.Error("refused sweep was recorded")
	}
	if data, err := os.ReadFile(path); err != nil || len(data) != 0 {
		t.Errorf("refused sweep journaled %d bytes (err %v)", len(data), err)
	}

	resp = postJSON(t, ts.URL+"/v1/sweeps", SweepRequest{
		Hierarchies: []string{"conventional", "ln+l3", "dn-4x8", "ln+dn-4x8"},
		Levels:      []int{2, 3, 4},
	})
	var accepted struct{ Jobs []JobRecord }
	decodeBody(t, resp, &accepted)
	if resp.StatusCode != http.StatusAccepted || len(accepted.Jobs) != 224 {
		t.Fatalf("224-cell sweep: %d with %d jobs, want 202 with 224", resp.StatusCode, len(accepted.Jobs))
	}
}
