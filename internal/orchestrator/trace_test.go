package orchestrator

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordTestTrace captures a small real run for end-to-end tests.
func recordTestTrace(t *testing.T) (*trace.Trace, exp.Result) {
	t.Helper()
	prof, ok := workload.ByName("400.perlbench")
	if !ok {
		t.Fatal("missing catalog benchmark")
	}
	mode := exp.Mode{Name: "trace-test", Warmup: 500, Measure: 2_500}
	res, tr := exp.RecordOneCtx(context.Background(), exp.Spec{Kind: hier.LNUCAL3, Levels: 3}, prof, mode, 1, nil)
	if res.Err != nil {
		t.Fatalf("record: %v", res.Err)
	}
	return tr, res
}

func validTraceID() string { return strings.Repeat("ab", 32) }

// TestTraceRequestValidation: a Request naming both trace and benchmark
// (or mix/cores), or pinning windows/seed alongside a trace, is rejected
// with a clear error — the library entry path of the satellite checks.
func TestTraceRequestValidation(t *testing.T) {
	id := validTraceID()
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"trace+benchmark", Request{Hierarchy: "ln+l3", Trace: id, Benchmark: "403.gcc"}, "not both"},
		{"trace+mix", Request{Hierarchy: "ln+l3", Trace: id, Cores: 4, Mix: "mixed"}, "single-core"},
		{"trace+cores", Request{Hierarchy: "ln+l3", Trace: id, Cores: 2}, "single-core"},
		{"trace+mode", Request{Hierarchy: "ln+l3", Trace: id, Mode: "full"}, "drop mode"},
		{"trace+warmup", Request{Hierarchy: "ln+l3", Trace: id, Warmup: 100}, "drop mode"},
		{"trace+measure", Request{Hierarchy: "ln+l3", Trace: id, Measure: 100}, "drop mode"},
		{"trace+seed", Request{Hierarchy: "ln+l3", Trace: id, Seed: 3}, "seed"},
		{"malformed-id", Request{Hierarchy: "ln+l3", Trace: "not-a-hash"}, "malformed trace id"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.req.Job()
			if err == nil {
				t.Fatalf("%+v should be rejected", c.req)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q should mention %q", err, c.want)
			}
		})
	}
}

// TestTraceJobNormalization: a valid trace request normalizes to a
// canonical single-core job with empty mode/seed, and round-trips
// through RequestOf.
func TestTraceJobNormalization(t *testing.T) {
	id := validTraceID()
	j, err := Request{Hierarchy: "lnuca", Trace: id, Levels: 0}.Job()
	if err != nil {
		t.Fatal(err)
	}
	if j.Trace != id || j.Levels != 3 || j.Seed != 0 || j.Mode != (exp.Mode{}) {
		t.Errorf("normalized trace job wrong: %+v", j)
	}
	if j.Hierarchy != "LN3-144KB" {
		t.Errorf("hierarchy label = %q", j.Hierarchy)
	}
	back := RequestOf(j)
	if back.Trace != id || back.Mode != "" || back.Warmup != 0 || back.Seed != 0 {
		t.Errorf("RequestOf(trace job) leaks pinned fields: %+v", back)
	}
	k1, err := back.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != j.Key() {
		t.Error("RequestOf round trip changed the content key")
	}
}

// TestTraceJobKeyGolden pins the trace-run canon shape, and
// TestJobKeyGolden (cmp_test.go) separately proves non-trace keys are
// byte-for-byte what they were before the trace subsystem existed.
func TestTraceJobKeyGolden(t *testing.T) {
	id := validTraceID()
	golden := []struct {
		job Job
		key string
	}{
		{Job{Kind: hier.LNUCAL3, Levels: 3, Trace: id},
			"8fcc23de9183433daa6ffb869afb9059a232864f382e432a998da040191fc8af"},
		{Job{Kind: hier.Conventional, Trace: id},
			"c5795c34b9593730dea33f73b4b669c661571d05d5f904da52121d90bbcf9cb6"},
	}
	for i, g := range golden {
		n, err := g.job.Normalize()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := n.Key(); got != g.key {
			t.Errorf("case %d: trace key drifted:\n got %s\nwant %s", i, got, g.key)
		}
	}
	// Same trace on different hierarchies (or depths) must be distinct
	// computations.
	keys := map[string]bool{}
	for _, j := range []Job{
		{Kind: hier.Conventional, Trace: id},
		{Kind: hier.LNUCAL3, Levels: 2, Trace: id},
		{Kind: hier.LNUCAL3, Levels: 3, Trace: id},
		{Kind: hier.LNUCADNUCA, Levels: 3, Trace: id},
	} {
		n, err := j.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if keys[n.Key()] {
			t.Fatalf("duplicate trace key for %+v", j)
		}
		keys[n.Key()] = true
	}
}

// TestSubmitTraceUnknown: submitting a trace job whose stream was never
// uploaded fails at submit time, not minutes later in a worker.
func TestSubmitTraceUnknown(t *testing.T) {
	o := New(Config{Workers: 1})
	defer o.Close()
	_, err := o.Submit(Job{Kind: hier.LNUCAL3, Trace: validTraceID()})
	if err == nil || !strings.Contains(err.Error(), "unknown trace") {
		t.Fatalf("want unknown-trace error, got %v", err)
	}
}

// TestOrchestratorTraceRun is the service-side end-to-end: ingest a
// recorded trace into the store, submit a trace job, and get back
// exactly the statistics the live recording run measured.
func TestOrchestratorTraceRun(t *testing.T) {
	tr, live := recordTestTrace(t)
	o := New(Config{Workers: 1})
	defer o.Close()
	hdr, err := o.Traces().Put(tr)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := o.Submit(Job{Kind: hier.LNUCAL3, Levels: 3, Trace: hdr.ID})
	if err != nil {
		t.Fatal(err)
	}
	rec = waitTerminal(t, o, rec.ID)
	if rec.Status != StatusDone {
		t.Fatalf("trace job %s: %s (%s)", rec.ID, rec.Status, rec.Error)
	}
	res := rec.Result
	if res.Benchmark != "400.perlbench" {
		t.Errorf("replay lost provenance: benchmark %q", res.Benchmark)
	}
	if res.IPC != live.IPC || res.Cycles != live.Cycles {
		t.Errorf("replay diverged: IPC %v/%v cycles %d/%d", res.IPC, live.IPC, res.Cycles, live.Cycles)
	}
	if res.Stats.String() != live.Stats.String() {
		t.Error("replay statistics diverged from the live run")
	}
	if res.Stats.Counter("core.load_latency_count") == 0 {
		t.Error("trace result missing the load-latency counters")
	}

	// The identical resubmission is a cache hit, not a re-simulation.
	again, err := o.Submit(Job{Kind: hier.LNUCAL3, Levels: 3, Trace: hdr.ID})
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != StatusDone || !again.Cached {
		t.Errorf("resubmission not served from cache: %+v", again)
	}
}

func waitTerminal(t *testing.T, o *Orchestrator, id string) JobRecord {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := o.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if rec.Status.Terminal() {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never terminated", id)
	return JobRecord{}
}

// TestHTTPTraceEndpoints drives the upload/list/replay surface over
// HTTP: POST /v1/traces, GET /v1/traces, GET /v1/traces/{id}, then a
// POST /v1/jobs trace run, plus the decode-level rejections.
func TestHTTPTraceEndpoints(t *testing.T) {
	tr, live := recordTestTrace(t)
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// A real (non-stub) run path: New wires Engine.Run over its
	// own cache and trace store when Run is nil.
	o := New(Config{Workers: 1})
	defer o.Close()
	srv := httptest.NewServer(NewServer(o))
	defer srv.Close()
	ts := srv.URL

	// Upload.
	resp, err := http.Post(ts+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	var hdr trace.Header
	decodeBody(t, resp, &hdr)
	if hdr.ID != tr.ID() || hdr.Benchmark != "400.perlbench" {
		t.Fatalf("upload header wrong: %+v", hdr)
	}

	// List.
	resp, err = http.Get(ts + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []trace.Header `json:"traces"`
	}
	decodeBody(t, resp, &list)
	if len(list.Traces) != 1 || list.Traces[0].ID != tr.ID() {
		t.Fatalf("list = %+v", list)
	}

	// Info.
	resp, err = http.Get(ts + "/v1/traces/" + tr.ID())
	if err != nil {
		t.Fatal(err)
	}
	var info trace.Header
	decodeBody(t, resp, &info)
	if info != hdr {
		t.Fatalf("info %+v != upload header %+v", info, hdr)
	}

	// Replay via POST /v1/jobs with the trace source.
	resp = postJSON(t, ts+"/v1/jobs", map[string]interface{}{
		"hierarchy": "ln+l3",
		"levels":    3,
		"trace":     tr.ID(),
	})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("trace job status %d", resp.StatusCode)
	}
	var rec JobRecord
	decodeBody(t, resp, &rec)
	deadline := time.Now().Add(30 * time.Second)
	for !rec.Status.Terminal() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		r2, err := http.Get(ts + "/v1/jobs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, r2, &rec)
	}
	if rec.Status != StatusDone {
		t.Fatalf("trace job: %s (%s)", rec.Status, rec.Error)
	}
	if rec.Result.IPC != live.IPC || rec.Result.Cycles != live.Cycles {
		t.Errorf("HTTP replay diverged from live: IPC %v/%v", rec.Result.IPC, live.IPC)
	}
	// The counters survive the HTTP JSON round trip intact.
	if rec.Result.Stats.String() != live.Stats.String() {
		t.Errorf("statistics changed over HTTP:\n%s\nwant\n%s", rec.Result.Stats, live.Stats)
	}

	// HTTP decode rejections (the satellite's HTTP path).
	for name, body := range map[string]map[string]interface{}{
		"trace+benchmark": {"hierarchy": "ln+l3", "trace": tr.ID(), "benchmark": "403.gcc"},
		"trace+cores":     {"hierarchy": "ln+l3", "trace": tr.ID(), "cores": 4, "mix": "mixed"},
		"trace+mode":      {"hierarchy": "ln+l3", "trace": tr.ID(), "mode": "full"},
		"trace+seed":      {"hierarchy": "ln+l3", "trace": tr.ID(), "seed": 3},
		"bad-id":          {"hierarchy": "ln+l3", "trace": "zzz"},
	} {
		resp := postJSON(t, ts+"/v1/jobs", body)
		var e struct {
			Error string `json:"error"`
		}
		decodeBody(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
			t.Errorf("%s: want 400 with error, got %d %q", name, resp.StatusCode, e.Error)
		}
	}

	// Uploading garbage is a 400, an unknown trace id on submit a 422.
	resp, err = http.Post(ts+"/v1/traces", "application/octet-stream", strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload: status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts+"/v1/jobs", map[string]interface{}{
		"hierarchy": "ln+l3", "trace": validTraceID(),
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown trace submit: status %d, want 422", resp.StatusCode)
	}
}

// TestJobResultHistogramJSONRoundTrip: the full servable result — the
// load-latency counters that replaced the histogram included — survives
// marshal/unmarshal, the shape both the file cache and the HTTP API rely
// on.
func TestJobResultHistogramJSONRoundTrip(t *testing.T) {
	_, live := recordTestTrace(t)
	jr := ResultOf(live)
	data, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	var got JobResult
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Valid() {
		t.Fatal("round-tripped result is invalid")
	}
	const sum, count = "core.load_latency_sum", "core.load_latency_count"
	if got.Stats.Counter(count) == 0 {
		t.Fatal("load-latency counters dropped")
	}
	if got.Stats.Counter(sum) != jr.Stats.Counter(sum) || got.Stats.Counter(count) != jr.Stats.Counter(count) ||
		got.Stats.Ratio(sum, count) != jr.Stats.Ratio(sum, count) {
		t.Errorf("load-latency round trip diverged: got %d/%d want %d/%d",
			got.Stats.Counter(sum), got.Stats.Counter(count), jr.Stats.Counter(sum), jr.Stats.Counter(count))
	}
}
