package lightnuca_test

// End-to-end tests of the trace subsystem's public surface: Record →
// Local replay (in process), Record → Client upload → service-side
// replay (over HTTP), and the validation the Runner entry paths share.

import (
	"context"
	"strings"
	"testing"
	"time"

	lightnuca "repro"
	"repro/internal/orchestrator"
)

func traceRecordRequest() lightnuca.Request {
	return lightnuca.Request{
		Hierarchy: "ln+l3",
		Levels:    3,
		Benchmark: "400.perlbench",
		Warmup:    500,
		Measure:   2500,
		Seed:      2,
	}
}

// TestRecordThenLocalReplay: the walkthrough path — record a run, import
// the trace into a Local runner, replay by content hash, and get back
// bit-identical statistics.
func TestRecordThenLocalReplay(t *testing.T) {
	ctx := context.Background()
	live, tr, err := lightnuca.Record(ctx, traceRecordRequest())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Benchmark != "400.perlbench" || tr.Header.Seed != 2 {
		t.Fatalf("trace provenance wrong: %+v", tr.Header)
	}
	if live.Stats.Counter("core.load_latency_count") == 0 {
		t.Error("recorded result misses the load-latency counters")
	}

	runner := &lightnuca.Local{}
	id, err := runner.ImportTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if id != tr.ID() {
		t.Fatalf("import id %s != trace id %s", id, tr.ID())
	}
	replay, err := runner.Run(ctx, lightnuca.Request{Hierarchy: "ln+l3", Levels: 3, Trace: id})
	if err != nil {
		t.Fatal(err)
	}
	if replay.IPC != live.IPC || replay.Cycles != live.Cycles {
		t.Errorf("replay diverged: IPC %v/%v cycles %d/%d", replay.IPC, live.IPC, replay.Cycles, live.Cycles)
	}
	if replay.Stats.String() != live.Stats.String() {
		t.Error("replay statistics diverged from the live run")
	}
	if replay.Benchmark != "400.perlbench" {
		t.Errorf("replay lost provenance: %q", replay.Benchmark)
	}

	// The same trace sweeps across a different hierarchy too.
	other, err := runner.Run(ctx, lightnuca.Request{Hierarchy: "conventional", Trace: id})
	if err != nil {
		t.Fatal(err)
	}
	if other.Key == replay.Key {
		t.Error("different hierarchies share a trace-run key")
	}

	// Identical resubmission is a cache hit.
	again, err := runner.Run(ctx, lightnuca.Request{Hierarchy: "ln+l3", Levels: 3, Trace: id})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("trace-run resubmission did not hit the cache")
	}
}

// TestRecordThenClientReplay: upload the encoded trace over HTTP, list
// it, and have lnucad replay it server-side.
func TestRecordThenClientReplay(t *testing.T) {
	ctx := context.Background()
	live, tr, err := lightnuca.Record(ctx, traceRecordRequest())
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}

	ts, _ := stubServer(t, orchestrator.Config{Workers: 1}) // real run path
	client := lightnuca.NewClient(ts.URL)
	client.PollInterval = time.Millisecond

	hdr, err := client.UploadTrace(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ID != tr.ID() {
		t.Fatalf("upload id %s != trace id %s", hdr.ID, tr.ID())
	}
	list, err := client.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != tr.ID() {
		t.Fatalf("Traces = %+v", list)
	}
	info, err := client.TraceInfo(ctx, tr.ID())
	if err != nil {
		t.Fatal(err)
	}
	if info != tr.Header {
		t.Fatalf("TraceInfo %+v != header %+v", info, tr.Header)
	}

	res, err := client.Run(ctx, lightnuca.Request{Hierarchy: "ln+l3", Levels: 3, Trace: tr.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC != live.IPC || res.Cycles != live.Cycles {
		t.Errorf("service replay diverged: IPC %v/%v", res.IPC, live.IPC)
	}
	if res.Stats.String() != live.Stats.String() {
		t.Error("service replay statistics diverged from the live run")
	}
}

// TestTraceRequestValidationLibraryPath: the Runner entry path rejects
// conflicting trace requests before any store or queue is touched.
func TestTraceRequestValidationLibraryPath(t *testing.T) {
	runner := &lightnuca.Local{}
	ctx := context.Background()
	id := strings.Repeat("ab", 32)
	for name, req := range map[string]lightnuca.Request{
		"trace+benchmark": {Hierarchy: "ln+l3", Trace: id, Benchmark: "403.gcc"},
		"trace+mix":       {Hierarchy: "ln+l3", Trace: id, Cores: 4, Mix: "mixed"},
		"trace+mode":      {Hierarchy: "ln+l3", Trace: id, Mode: "full"},
		"trace+seed":      {Hierarchy: "ln+l3", Trace: id, Seed: 9},
		"bad-id":          {Hierarchy: "ln+l3", Trace: "nope"},
	} {
		if _, err := runner.Run(ctx, req); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
	// A well-formed but unknown trace fails with a store miss.
	if _, err := runner.Run(ctx, lightnuca.Request{Hierarchy: "ln+l3", Trace: id}); err == nil ||
		!strings.Contains(err.Error(), "unknown trace") {
		t.Errorf("unknown trace: got %v", err)
	}
}

// TestRecordRejectsNonBenchmarkRequests: Record is for single-core
// benchmark runs only.
func TestRecordRejectsNonBenchmarkRequests(t *testing.T) {
	ctx := context.Background()
	for name, req := range map[string]lightnuca.Request{
		"mix":   {Hierarchy: "ln+l3", Cores: 2, Mix: "mixed"},
		"trace": {Hierarchy: "ln+l3", Trace: strings.Repeat("ab", 32)},
	} {
		if _, _, err := lightnuca.Record(ctx, req); err == nil {
			t.Errorf("%s: Record should reject this request", name)
		}
	}
}
