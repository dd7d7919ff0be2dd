package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/orchestrator"
)

// heldAnswer is how a held poll ended: its status, or a transport
// error.
type heldAnswer struct {
	code int
	err  error
}

// holdRequest sends req in a goroutine and delivers how it ended.
func holdRequest(client *http.Client, req *http.Request) <-chan heldAnswer {
	out := make(chan heldAnswer, 1)
	go func() {
		resp, err := client.Do(req)
		a := heldAnswer{err: err}
		if err == nil {
			a.code = resp.StatusCode
			resp.Body.Close()
		}
		out <- a
	}()
	return out
}

// awaitAnswer fails the test unless the held poll ends within a second.
func awaitAnswer(t *testing.T, what string, ch <-chan heldAnswer) heldAnswer {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(time.Second):
		t.Fatalf("%s still held a second later", what)
		return heldAnswer{}
	}
}

// TestHeldPollsEnd: a lease poll and a sweep poll, each asking for a 10s
// hold, end at once when the coordinator and the orchestrator close, or
// when the client gives up; then http.Server.Shutdown returns at once and
// every goroutine the stack started is gone.
func TestHeldPollsEnd(t *testing.T) {
	for _, end := range []string{"close", "cancel"} {
		t.Run(end, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			coord := NewCoordinator(Config{LeaseTTL: time.Minute})
			orch := orchestrator.New(orchestrator.Config{Workers: 1, Run: coord.Dispatch})
			mux := http.NewServeMux()
			mux.Handle("/fleet/v1/", coord.Handler())
			mux.Handle("/", orchestrator.NewServer(orch))
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := &http.Server{Handler: mux}
			served := make(chan struct{})
			go func() {
				defer close(served)
				_ = srv.Serve(ln)
			}()
			base := "http://" + ln.Addr().String()
			conns := &http.Transport{}
			client := &http.Client{Transport: conns}

			// One cell, leased to a worker that never finishes it: the sweep
			// runs, and the coordinator has nothing more to grant.
			sid, _, err := orch.SubmitSweep([]orchestrator.Job{quickJob("403.gcc")})
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); coord.Lease(context.Background(), "w0", 0) == nil; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the sweep's cell never reached the coordinator")
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			leaseReq, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+PathLease,
				strings.NewReader(`{"worker":"w1","wait_ms":10000}`))
			sweepReq, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sweeps/"+sid+"?wait=10000", nil)
			leaseAns, sweepAns := holdRequest(client, leaseReq), holdRequest(client, sweepReq)
			select {
			case a := <-leaseAns:
				t.Fatalf("the lease poll was not held: %+v", a)
			case a := <-sweepAns:
				t.Fatalf("the sweep poll was not held: %+v", a)
			case <-time.After(50 * time.Millisecond):
			}

			switch end {
			case "close":
				orch.Close()
				if a := awaitAnswer(t, "the sweep poll, after Orchestrator.Close,", sweepAns); a.code != http.StatusOK {
					t.Fatalf("sweep poll ended with HTTP %d, %v", a.code, a.err)
				}
				coord.Close()
				if a := awaitAnswer(t, "the lease poll, after Coordinator.Close,", leaseAns); a.code != http.StatusNoContent {
					t.Fatalf("lease poll ended with HTTP %d, %v", a.code, a.err)
				}
			case "cancel":
				cancel()
				for what, ch := range map[string]<-chan heldAnswer{"the lease poll": leaseAns, "the sweep poll": sweepAns} {
					if a := awaitAnswer(t, what+", after its client gave up,", ch); !errors.Is(a.err, context.Canceled) {
						t.Fatalf("%s ended with HTTP %d, %v", what, a.code, a.err)
					}
				}
			}

			// The handlers are gone too: Shutdown finds nothing active.
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			start := time.Now()
			if err := srv.Shutdown(sctx); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took > 500*time.Millisecond {
				t.Fatalf("Shutdown took %v with no poll left to hold", took)
			}
			<-served
			orch.Close()
			coord.Close()
			conns.CloseIdleConnections()
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left, %d at the start", runtime.NumGoroutine(), baseline)
				}
			}
		})
	}
}

// TestWorkerPacesPollsAgainstAnImmediateCoordinator: a coordinator that
// answers 204 at once, as one that ignores wait_ms does, sees at most one
// lease poll per PollInterval, each asking to be held that long.
func TestWorkerPacesPollsAgainstAnImmediateCoordinator(t *testing.T) {
	const interval = 20 * time.Millisecond
	var polls atomic.Int64
	var badWait atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WaitMS != interval.Milliseconds() {
			badWait.Store(fmt.Sprintf("%+v (%v)", req, err))
		}
		polls.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	w := NewWorker(WorkerConfig{Coordinator: ts.URL, Name: "w", PollInterval: interval})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_ = w.Run(ctx)
	elapsed := time.Since(start)
	if v := badWait.Load(); v != nil {
		t.Fatalf("lease request %s, want wait_ms %d", v, interval.Milliseconds())
	}
	n := polls.Load()
	if limit := int64(elapsed/interval) + 1; n > limit || n < 3 {
		t.Fatalf("%d lease polls in %v at a %v interval, want 3..%d", n, elapsed, interval, limit)
	}
}

// TestHeldLeaseWakes: a held lease poll is answered by a dispatch as it
// happens, and by a requeued job within a millisecond of its backoff
// ending; a negative wait_ms is a 400.
func TestHeldLeaseWakes(t *testing.T) {
	coord := NewCoordinator(Config{LeaseTTL: time.Minute, RetryBaseDelay: 30 * time.Millisecond})
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hold := func() <-chan *LeaseResponse {
		out := make(chan *LeaseResponse, 1)
		go func() { out <- coord.Lease(ctx, "w", 5*time.Second) }()
		time.Sleep(10 * time.Millisecond) // the poll is held before what it waits for
		return out
	}

	held := hold()
	nj, err := quickJob("403.gcc").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		_, _ = coord.Dispatch(ctx, nj, nil)
	}()
	var l *LeaseResponse
	select {
	case l = <-held:
	case <-time.After(time.Second):
		t.Fatal("a dispatch did not answer the held lease poll")
	}
	if l == nil || l.Key != nj.Key() {
		t.Fatalf("held poll answered %+v", l)
	}

	held = hold()
	if !coord.Complete(CompleteRequest{LeaseID: l.LeaseID, Error: "transient", Retryable: true}) {
		t.Fatal("completion of a held lease rejected")
	}
	coord.mu.Lock()
	readyAt := coord.waiting[0].readyAt
	coord.mu.Unlock()
	select {
	case l = <-held:
	case <-time.After(time.Second):
		t.Fatal("the requeued job never answered the held lease poll")
	}
	if late := time.Since(readyAt); l == nil || l.Attempt != 2 || late < 0 || late > time.Millisecond {
		t.Fatalf("requeued job leased %v after its readyAt: %+v", late, l)
	}
	cancel()
	<-dispatched

	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+PathLease, "application/json", strings.NewReader(`{"worker":"w","wait_ms":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wait_ms -1: HTTP %d, want 400", resp.StatusCode)
	}
}
