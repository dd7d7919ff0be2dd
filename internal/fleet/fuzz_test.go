package fleet

// Fuzz targets for the two lease-protocol bodies that carry a job one way
// and its result the other: the lease a worker decodes and acts on, and the
// completion the coordinator decodes. CI runs each for a few seconds.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
)

// fuzzJobs are leased jobs of every kind: single-core, levels, mix, trace.
func fuzzJobs(tb testing.TB) []orchestrator.Job {
	tb.Helper()
	jobs := []orchestrator.Job{
		quickJob("403.gcc"),
		{Kind: hier.LNUCAL3, Levels: 3, Benchmark: "429.mcf", Mode: exp.Mode{Name: "custom", Warmup: 500, Measure: 3000}, Seed: 7, Priority: 5},
		{Kind: hier.LNUCADNUCA, Cores: 2, Mix: "403.gcc,470.lbm", Mode: exp.Quick, Seed: 5},
		{Kind: hier.Conventional, Trace: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"},
	}
	for i, j := range jobs {
		n, err := j.Normalize()
		if err != nil {
			tb.Fatal(err)
		}
		jobs[i] = n
	}
	return jobs
}

// roundTrip answers a worker's requests from a function.
type roundTrip func(*http.Request) (int, []byte)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) {
	code, body := f(r)
	return &http.Response{StatusCode: code, Body: io.NopCloser(bytes.NewReader(body)), Header: http.Header{}, Request: r}, nil
}

// FuzzLeaseResponse: whatever the coordinator's answer to a lease poll, a
// worker that decodes it either reports a poll error or acts on it exactly
// once: it runs the job only when the request parses to the leased key, and
// delivers one completion — the result, or why it refused.
func FuzzLeaseResponse(f *testing.F) {
	for i, j := range fuzzJobs(f) {
		lease := LeaseResponse{LeaseID: "lease-000001", JobID: "fleet-000001", Key: j.Key(), Request: orchestrator.RequestOf(j), Attempt: i, HeartbeatSeconds: 10}
		if i%2 == 1 {
			lease.Traceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
		}
		data, err := json.Marshal(lease)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(bytes.Replace(data, []byte(j.Key()), []byte("another key"), 1))
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"lease_id":"l","key":"k","request":{"hierarchy":"ln+l3","benchmark":"403.gcc","levels":9},"heartbeat_seconds":-1e300}`))
	f.Add([]byte(`{"lease_id":"l","request":{"hierarchy":"conv","cores":3,"mix":"random","seed":18446744073709551615},"heartbeat_seconds":1e-9,"attempt":-1}`))
	f.Add([]byte(`{"lease_id":5}`))
	f.Add([]byte(`{"lease_id":"l","traceparent":"zz","request":{"schema":"lnuca-run-v2"}} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var mu sync.Mutex
		var ran []orchestrator.Job
		var completions []CompleteRequest
		w := NewWorker(WorkerConfig{
			Coordinator: "http://coordinator.invalid",
			Client: &http.Client{Transport: roundTrip(func(r *http.Request) (int, []byte) {
				switch r.URL.Path {
				case PathLease:
					return http.StatusOK, data
				case PathComplete:
					var req CompleteRequest
					body, _ := io.ReadAll(r.Body)
					if err := orchestrator.Unmarshal(body, &req); err != nil {
						t.Errorf("the worker's completion does not decode: %v", err)
					}
					mu.Lock()
					completions = append(completions, req)
					mu.Unlock()
				case PathHeartbeat:
				default: // a trace fetch: the coordinator does not hold it
					return http.StatusNotFound, nil
				}
				return http.StatusOK, []byte(`{}`)
			})},
			Run: func(_ context.Context, j orchestrator.Job, _ func(done, total uint64)) (*orchestrator.JobResult, error) {
				mu.Lock()
				ran = append(ran, j)
				mu.Unlock()
				return stubResult(j), nil
			},
		})
		lease, err := w.poll(context.Background())
		var want LeaseResponse
		if werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want); (err == nil) != (werr == nil) {
			t.Fatalf("%q: poll error %v, decoding it %v", data, err, werr)
		}
		if err != nil {
			return
		}
		w.execute(context.Background(), lease)
		if len(completions) != 1 || completions[0].LeaseID != want.LeaseID {
			t.Fatalf("%q: %d completions %+v, want one for lease %q", data, len(completions), completions, want.LeaseID)
		}
		job, jerr := want.Request.Job()
		switch done := completions[0]; {
		case jerr != nil || job.Key() != want.Key:
			if len(ran) != 0 || done.Error == "" || done.Result != nil || done.Retryable {
				t.Fatalf("%q: a lease that does not check out (%v) ran %d jobs and completed %+v", data, jerr, len(ran), done)
			}
		case job.Trace != "":
			if len(ran) != 0 || !done.Retryable || !strings.Contains(done.Error, "trace fetch") {
				t.Fatalf("%q: a trace the coordinator does not serve ran %d jobs and completed %+v", data, len(ran), done)
			}
		case len(ran) != 1 || ran[0].Key() != want.Key || done.Error != "" || done.Result == nil || done.Result.Config != stubResult(job).Config:
			t.Fatalf("%q: ran %+v and completed %+v, want the leased job's result", data, ran, done)
		}
	})
}

// FuzzCompleteRequest: whatever the body of a completion, the route answers
// 400 exactly when encoding/json refuses it and 410 otherwise (no lease is
// held), and the shared reader decodes it to json.Unmarshal's value, which
// the shared writer encodes to json.Marshal's bytes.
func FuzzCompleteRequest(f *testing.F) {
	stored, err := os.ReadFile(filepath.Join("..", "stats", "testdata", "quick_ln3_403gcc.json"))
	if err != nil {
		f.Fatal(err)
	}
	var res orchestrator.JobResult
	if err := json.Unmarshal(stored, &res); err != nil {
		f.Fatal(err)
	}
	res.Phases = &exp.Phases{BuildSeconds: 0.001, MeasureSeconds: 0.01, Instructions: 20000}
	for _, req := range []CompleteRequest{
		{LeaseID: "lease-000001", Result: &res},
		{LeaseID: "lease-000002", Result: stubResult(quickJob("403.gcc")), Spans: []tracez.Span{{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7", Name: "lnuca.worker.execute"}}},
		{LeaseID: "lease-000003", Error: "trace fetch: <timeout>", Retryable: true},
		{LeaseID: "lease-000004", Error: "context canceled", Retryable: true, Released: true},
		{},
	} {
		data, err := orchestrator.AppendJSON(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		for n := 0; n < len(data); n += 97 {
			f.Add(data[:n])
		}
	}
	// A completion from a worker that stores lnuca-job-v5 results: members
	// no struct has any more, for encoding/json to skip.
	legacy, err := os.ReadFile(filepath.Join("..", "stats", "testdata", "quick_ln3_403gcc_v5.json"))
	if err != nil {
		f.Fatal(err)
	}
	legacy = append(append([]byte(`{"lease_id":"lease-000001","result":`), bytes.TrimSpace(legacy)...), '}')
	for n := 0; n < len(legacy); n += 97 {
		f.Add(legacy[:n])
	}
	f.Add(legacy)
	f.Add([]byte(`{"lease_id":"l","result":null}`))
	f.Add([]byte(`{"lease_id":"l","result":{"stats":{"counters":{"a":1}}},"result":{"cycles":2}}`))
	f.Add([]byte(`{"lease_id":"l","Result":{"stats":{"counters":{"a":1}}}}`))
	f.Add([]byte(`{"lease_id":"l","result":{"stats":{"counters":{"a":1}},"STATS":{"counters":{"b":2}}}}`))
	f.Add([]byte(`{"lease_id":"l","result":{"load_latency":{"buckets":[1],"count":1,"sum":0}},"spans":[{"name":"]}"}]} x`))
	f.Add([]byte(`{"lease_id":7,"result":{"stats":{"counters":{"a":1}}}}`))
	coord := NewCoordinator(Config{})
	f.Cleanup(coord.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want CompleteRequest
		err, werr := orchestrator.Unmarshal(bytes.Clone(data), &got), json.Unmarshal(data, &want)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%q: Unmarshal error %v, json.Unmarshal's %v", data, err, werr)
		}
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathComplete, bytes.NewReader(data)))
		if code := map[bool]int{true: http.StatusGone, false: http.StatusBadRequest}[werr == nil]; rec.Code != code {
			t.Fatalf("%q: HTTP %d %s, want %d (%v)", data, rec.Code, rec.Body, code, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %+v, json.Unmarshal %+v", data, got, want)
		}
		enc, err := orchestrator.AppendJSON(nil, got)
		wenc, werr := json.Marshal(want)
		if (err == nil) != (werr == nil) || err == nil && !bytes.Equal(enc, wenc) {
			t.Fatalf("%q: re-encoded %s (%v), json.Marshal %s (%v)", data, enc, err, wenc, werr)
		}
	})
}
