package lightnuca_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	lightnuca "repro"
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
)

// TestClientLifecycle drives submit → streamed wait → result against a
// stub-backed service, then exercises cancellation of a run that would
// otherwise never finish.
func TestClientLifecycle(t *testing.T) {
	block := make(chan struct{})
	ts, _ := stubServer(t, orchestrator.Config{
		Workers: 1,
		Run: func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
			if j.Benchmark == "429.mcf" { // the cancellation victim
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-block:
				}
			}
			if progress != nil {
				progress(1, 2)
			}
			return instantRun(ctx, j, progress)
		},
	})
	defer close(block)
	client := lightnuca.NewClient(ts.URL)
	client.PollInterval = time.Millisecond
	ctx := context.Background()

	// Submit + Wait with streaming updates.
	rec, err := client.Submit(ctx, lightnuca.Request{Hierarchy: "ln+l3", Benchmark: "403.gcc"})
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	final, err := client.Wait(ctx, rec.ID, func(lightnuca.JobRecord) { updates++ })
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != lightnuca.StatusDone || updates == 0 {
		t.Fatalf("wait: status %s after %d updates", final.Status, updates)
	}

	// Run() end to end converts the record.
	res, err := client.Run(ctx, lightnuca.Request{Hierarchy: "ln+l3", Benchmark: "403.gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("second identical Run was not served from the service cache")
	}

	// Lookup hits for cached content, clean-misses for new content.
	if _, ok, err := client.Lookup(ctx, lightnuca.Request{Hierarchy: "ln+l3", Benchmark: "403.gcc"}); err != nil || !ok {
		t.Fatalf("lookup of cached run: ok=%v err=%v", ok, err)
	}
	if _, ok, err := client.Lookup(ctx, lightnuca.Request{Hierarchy: "ln+l3", Benchmark: "470.lbm"}); err != nil || ok {
		t.Fatalf("lookup of never-run content: ok=%v err=%v", ok, err)
	}

	// Cancel a blocked run.
	blocked, err := client.Submit(ctx, lightnuca.Request{Hierarchy: "ln+l3", Benchmark: "429.mcf"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Cancel(ctx, blocked.ID); err != nil {
		t.Fatal(err)
	}
	final, err = client.Wait(ctx, blocked.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != lightnuca.StatusCanceled {
		t.Fatalf("canceled job ended as %s", final.Status)
	}
	if _, err := client.Run(ctx, lightnuca.Request{Hierarchy: "bogus", Benchmark: "403.gcc"}); err == nil {
		t.Fatal("bad hierarchy accepted by the service")
	}
}

// TestClientSweepFanOut submits a declarative Sweep, waits it out with
// streamed aggregate snapshots, and checks the identical resubmission
// is served entirely from cache.
func TestClientSweepFanOut(t *testing.T) {
	ts, orch := stubServer(t, orchestrator.Config{Workers: 2, Run: instantRun})
	client := lightnuca.NewClient(ts.URL)
	client.PollInterval = time.Millisecond
	ctx := context.Background()

	sweep := lightnuca.Sweep{
		Hierarchies: []string{"conventional", "ln+l3"},
		Levels:      []int{2, 3},
		Benchmarks:  []string{"403.gcc", "470.lbm"},
		Seed:        1,
	}
	snapshots := 0
	st, err := client.RunSweep(ctx, sweep, func(lightnuca.SweepStatus) { snapshots++ })
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 6 || !st.Done || snapshots == 0 {
		t.Fatalf("sweep: %+v after %d snapshots", st, snapshots)
	}
	executed := orch.Metrics().Executed

	st2, err := client.RunSweep(ctx, sweep, nil)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, j := range st2.Jobs {
		if j.Cached {
			cached++
		}
	}
	if cached != st2.Total {
		t.Fatalf("resubmitted sweep: %d/%d cached", cached, st2.Total)
	}
	if got := orch.Metrics().Executed; got != executed {
		t.Fatalf("resubmission executed %d new runs", got-executed)
	}

	// Client-side fan-out agrees with the service-side expansion cell
	// for cell: every expanded Request's key is among the sweep's jobs.
	reqs, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, j := range st.Jobs {
		keys[j.Key] = true
	}
	for i, r := range reqs {
		k, err := r.Key()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if !keys[k] {
			t.Fatalf("cell %d: client-side key %s not among service jobs", i, k)
		}
	}
}

// TestClientErrorEnvelope: service-side errors surface as *APIError with
// the decoded message, not as opaque status text.
func TestClientErrorEnvelope(t *testing.T) {
	ts, _ := stubServer(t, orchestrator.Config{Workers: 1, Run: instantRun})
	client := lightnuca.NewClient(strings.TrimPrefix(ts.URL, "http://")) // bare host:port form
	_, err := client.Submit(context.Background(), lightnuca.Request{Hierarchy: "nope", Benchmark: "403.gcc"})
	apiErr, ok := err.(*lightnuca.APIError)
	if !ok {
		t.Fatalf("got %T (%v), want *APIError", err, err)
	}
	if apiErr.Status != 400 || !strings.Contains(apiErr.Message, "unknown hierarchy") {
		t.Fatalf("unexpected API error: %+v", apiErr)
	}
	if _, err := client.Job(context.Background(), "job-999999"); err == nil {
		t.Fatal("unknown job id accepted")
	}
}

// TestClientTracingPropagates pins client-side tracing end to end over
// HTTP: EnableTracing makes Submit open lnuca.client.submit, propagate
// its context in the traceparent header, and ship the finished span to
// POST /v1/spans — so the service's flight recorder ends up holding one
// tree rooted at the client span, with the orchestrator's submit span
// parented under it.
func TestClientTracingPropagates(t *testing.T) {
	flight := tracez.NewFlightRecorder(0, 0, 0)
	ts, _ := stubServer(t, orchestrator.Config{
		Workers: 1,
		Run:     instantRun,
		Tracer:  tracez.New(flight),
		Flight:  flight,
	})
	client := lightnuca.NewClient(ts.URL).EnableTracing()
	client.PollInterval = time.Millisecond
	ctx := context.Background()

	rec, err := client.Submit(ctx, lightnuca.Request{Hierarchy: "ln+l3", Benchmark: "403.gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TraceID == "" {
		t.Fatal("traced submission returned no trace ID")
	}
	if _, err := client.Wait(ctx, rec.ID, nil); err != nil {
		t.Fatal(err)
	}

	// Submit ships its span before returning, but the orchestrator's own
	// spans finish on its goroutines; poll for both sides of the tree.
	var spans []tracez.Span
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		spans = flight.Spans(rec.TraceID)
		var haveClient, haveOrch bool
		for _, s := range spans {
			haveClient = haveClient || s.Name == "lnuca.client.submit"
			haveOrch = haveOrch || s.Name == "lnuca.orch.submit"
		}
		if haveClient && haveOrch {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var rootID string
	for _, s := range spans {
		if s.Name == "lnuca.client.submit" {
			if s.Parent != "" {
				t.Fatalf("client span has parent %s, want root", s.Parent)
			}
			rootID = s.SpanID
		}
	}
	if rootID == "" {
		t.Fatalf("client span never reached the service recorder (spans: %d)", len(spans))
	}
	for _, s := range spans {
		if s.Name == "lnuca.orch.submit" && s.Parent != rootID {
			t.Fatalf("orch.submit parent = %s, want the client span %s — the traceparent header did not propagate", s.Parent, rootID)
		}
	}
}

// TestClientRunRefusesDroppedMachine: an lnucad older than the machine
// member decodes a request without it and runs Table I under the plain
// key. Run must fail rather than hand that back as the machine's result.
func TestClientRunRefusesDroppedMachine(t *testing.T) {
	_, orch := stubServer(t, orchestrator.Config{Workers: 1, Run: instantRun})
	api := orchestrator.NewServer(orch)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			var body map[string]interface{}
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
				t.Error(err)
			}
			delete(body, "machine")
			data, _ := json.Marshal(body)
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(data)), int64(len(data))
		}
		api.ServeHTTP(w, r)
	}))
	defer old.Close()
	client := lightnuca.NewClient(old.URL)
	client.PollInterval = time.Millisecond
	ctx := context.Background()

	req := lightnuca.Request{Hierarchy: "ln+l3", Benchmark: "403.gcc", Machine: map[string]float64{"ln.link_buf": 1}}
	if _, err := client.Run(ctx, req); err == nil || !strings.Contains(err.Error(), "keyed") {
		t.Fatalf("Run through a server that drops the machine: err = %v, want a key mismatch", err)
	}
	// A machine that sets no row is the plain request: nothing to lose.
	req.Machine = map[string]float64{"ln.link_buf": 2}
	if _, err := client.Run(ctx, req); err != nil {
		t.Fatalf("Table I machine: %v", err)
	}
	// GET /v1/results cannot name a machine at all.
	req.Machine = map[string]float64{"ln.tile_kb": 4}
	if _, _, err := client.Lookup(ctx, req); err == nil {
		t.Fatal("Lookup of a machine request answered")
	}
}
