package orchestrator

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// TestSweepWaitHoldsUntilDone: GET /v1/sweeps/{id}?wait= answers when the
// last cell ends, not at an earlier cell's transition, and with the delta
// since= names; a hold on a sweep that does not end answers when wait
// passes; a malformed wait is a 400.
func TestSweepWaitHoldsUntilDone(t *testing.T) {
	gates := map[string]chan struct{}{
		"403.gcc": make(chan struct{}), "429.mcf": make(chan struct{}), "470.lbm": make(chan struct{}),
	}
	o := New(Config{Workers: 3, Run: func(ctx context.Context, job Job, _ func(uint64, uint64)) (*JobResult, error) {
		select {
		case <-gates[job.Benchmark]:
			return stubResult(job), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	defer o.Close()
	ts := httptest.NewServer(NewServer(o))
	defer ts.Close()
	jobs := []Job{quickJob("403.gcc"), quickJob("429.mcf"), quickJob("470.lbm")}
	sid, _, err := o.SubmitSweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	get := func(query string) (int, SweepStatus) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + sid + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st SweepStatus
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, st
	}
	for _, q := range []string{"?wait=soon", "?wait=-1", "?wait=1.5"} {
		if code, _ := get(q); code != http.StatusBadRequest {
			t.Errorf("GET %s: HTTP %d, want 400", q, code)
		}
	}

	start := time.Now()
	code, st := get("?wait=30")
	if took := time.Since(start); code != http.StatusOK || st.Done || took < 30*time.Millisecond {
		t.Fatalf("a 30ms hold on a running sweep: HTTP %d done=%v after %v", code, st.Done, took)
	}

	type answer struct {
		st   SweepStatus
		code int
		at   time.Time
	}
	held := make(chan answer, 1)
	go func() {
		code, st := get("?since=" + strconv.FormatUint(st.Cursor, 10) + "&wait=10000")
		held <- answer{st, code, time.Now()}
	}()
	close(gates["403.gcc"])
	close(gates["429.mcf"])
	select {
	case a := <-held:
		t.Fatalf("the held poll answered before the sweep was done: %+v", a.st)
	case <-time.After(50 * time.Millisecond):
	}
	close(gates["470.lbm"])
	lastDone := time.Now()
	a := <-held
	if a.code != http.StatusOK || !a.st.Done || len(a.st.Jobs) != 3 || a.st.ByState[StatusDone] != 3 {
		t.Fatalf("held poll answered HTTP %d: %+v", a.code, a.st)
	}
	if lag := a.at.Sub(lastDone); lag > time.Second {
		t.Fatalf("held poll answered %v after the last cell ended", lag)
	}
	start = time.Now()
	if code, st := get("?since=" + strconv.FormatUint(a.st.Cursor, 10) + "&wait=10000"); code != http.StatusOK || !st.Done || len(st.Jobs) != 0 {
		t.Fatalf("a held poll of a done sweep: HTTP %d %+v", code, st)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("a held poll of a done sweep took %v", took)
	}
}
