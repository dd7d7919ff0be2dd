package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/exp"
	"repro/internal/hier"
)

// TestSweepSinceMergesToFull steps a 12-cell sweep — one cell listed
// twice, one already cached, one that fails, one canceled while queued
// and one while running — through its transitions on a single worker.
// After each, the delta SweepSince returns from the last cursor, merged
// by job ID into the records so far, must equal what Sweep returns.
func TestSweepSinceMergesToFull(t *testing.T) {
	started := make(chan string) // key of the run that just began
	release := make(chan error)  // how it is to end
	o := New(Config{Workers: 1, Run: func(ctx context.Context, j Job, _ func(uint64, uint64)) (*JobResult, error) {
		select {
		case started <- j.Key():
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		select {
		case err := <-release:
			if err != nil {
				return nil, err
			}
			return stubResult(j), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	defer o.Close()

	jobs := ExpandSweep(
		[]hier.Kind{hier.Conventional, hier.LNUCAL3, hier.DNUCAOnly},
		nil, []string{"403.gcc", "429.mcf", "434.zeusmp", "482.sphinx3"}, exp.Quick, 1)
	const cached, twin, failing, cancelQueued, cancelRunning = 0, 2, 3, 7, 9
	jobs[5] = jobs[twin] // coalesces: one job ID at two positions

	pre, err := o.Submit(jobs[cached])
	if err != nil {
		t.Fatal(err)
	}
	<-started
	release <- nil
	waitDone(t, o, pre.ID)

	sid, recs, err := o.SubmitSweep(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 || !recs[cached].Cached || recs[5].ID != recs[twin].ID {
		t.Fatalf("sweep of %d cells: cached=%v, twin IDs %s/%s", len(recs), recs[cached].Cached, recs[twin].ID, recs[5].ID)
	}
	idOf := map[string]string{}
	for _, r := range recs {
		idOf[r.Key] = r.ID
	}

	var (
		merged []JobRecord
		at     map[string][]int // job ID -> positions in merged
		cursor uint64
	)
	type visible struct {
		ID     string
		Status Status
		Cached bool
		Error  string
		Result *JobResult
	}
	check := func(when string) {
		t.Helper()
		for {
			delta, ok := o.SweepSince(sid, cursor)
			if !ok || delta.Cursor < cursor {
				t.Fatalf("%s: SweepSince(%d) ok=%v cursor=%d", when, cursor, ok, delta.Cursor)
			}
			if at == nil {
				merged = append(merged, delta.Jobs...)
				at = map[string][]int{}
				for i, r := range merged {
					at[r.ID] = append(at[r.ID], i)
				}
			} else {
				for _, r := range delta.Jobs {
					for _, i := range at[r.ID] {
						merged[i] = r
					}
				}
			}
			cursor = delta.Cursor
			full, _ := o.Sweep(sid)
			if full.Cursor != cursor {
				continue // the worker moved between the two reads: take that delta too
			}
			if len(merged) != len(full.Jobs) {
				t.Fatalf("%s: merged %d records, Sweep has %d", when, len(merged), len(full.Jobs))
			}
			for i, f := range full.Jobs {
				m := merged[i]
				got := visible{m.ID, m.Status, m.Cached, m.Error, m.Result}
				want := visible{f.ID, f.Status, f.Cached, f.Error, f.Result}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: cell %d merged to %+v, Sweep has %+v", when, i, got, want)
				}
			}
			if !reflect.DeepEqual(delta.ByState, full.ByState) || delta.Done != full.Done || delta.Total != full.Total {
				t.Fatalf("%s: delta counts %v done=%v, Sweep %v done=%v", when, delta.ByState, delta.Done, full.ByState, full.Done)
			}
			if again, _ := o.SweepSince(sid, cursor); again.Cursor == cursor && len(again.Jobs) != 0 {
				t.Fatalf("%s: nothing changed since %d, yet %d records were sent", when, cursor, len(again.Jobs))
			}
			return
		}
	}

	boom := errors.New("bank exploded")
	key := <-started
	check("first cell running")
	if _, ok := o.Cancel(recs[cancelQueued].ID); !ok {
		t.Fatal("cancel lost the queued cell")
	}
	check("a queued cell canceled")
	// 12 cells less the cached, the twin and the one canceled in the queue.
	for ran := 1; ; ran++ {
		id := idOf[key]
		switch id {
		case recs[failing].ID:
			release <- boom
		case recs[cancelRunning].ID:
			o.Cancel(id)
		default:
			release <- nil
		}
		waitDone(t, o, id)
		check(fmt.Sprintf("run %d ended", ran))
		if ran == 9 {
			break
		}
		key = <-started
		check(fmt.Sprintf("run %d began", ran+1))
	}

	final, _ := o.Sweep(sid)
	want := map[Status]int{StatusDone: 9, StatusFailed: 1, StatusCanceled: 2}
	if !final.Done || !reflect.DeepEqual(final.ByState, want) {
		t.Fatalf("final by_state = %v done=%v, want %v", final.ByState, final.Done, want)
	}
	if m := merged[failing]; m.Status != StatusFailed || m.Error != boom.Error() {
		t.Errorf("failing cell merged to %s %q", m.Status, m.Error)
	}
	if merged[twin].Result == nil || merged[5].Result != merged[twin].Result {
		t.Errorf("the twin cell's two positions hold %v and %v", merged[twin].Result, merged[5].Result)
	}
}

// TestSweepSinceBadCursor: a malformed since is the caller's error; one
// ahead of the service is not — nothing has changed since then.
func TestSweepSinceBadCursor(t *testing.T) {
	ts, o := newTestServer(t, Config{Workers: 2})
	sid, recs, err := o.SubmitSweep([]Job{quickJob("403.gcc"), quickJob("429.mcf")})
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, o, sid)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sid + "?since=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("since=x answered %d, want 400", resp.StatusCode)
	}

	for query, want := range map[string]int{"": len(recs), "?since=0": len(recs), "?since=1000000": 0} {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + sid + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET sweep%s answered %d", query, resp.StatusCode)
		}
		var st SweepStatus
		decodeBody(t, resp, &st)
		if len(st.Jobs) != want || !st.Done || st.Total != len(recs) || st.ByState[StatusDone] != len(recs) {
			t.Errorf("GET sweep%s: %d jobs (want %d), done=%v total=%d by_state=%v", query, len(st.Jobs), want, st.Done, st.Total, st.ByState)
		}
	}
}
