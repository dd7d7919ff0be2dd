package lightnuca_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	lightnuca "repro"
	"repro/internal/orchestrator"
)

// sweepPollBytes counts the body bytes of every GET /v1/sweeps/{id}
// answer that passes through it.
type sweepPollBytes struct {
	n     atomic.Int64
	polls atomic.Int64
}

func (c *sweepPollBytes) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/sweeps/") {
		c.polls.Add(1)
		resp.Body = &countedBody{ReadCloser: resp.Body, n: &c.n}
	}
	return resp, err
}

type countedBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// TestWaitSweepBytesAreLinear: waiting out a sweep moves O(points) bytes,
// not O(points x polls). A 224-cell sweep (the paper's matrix: eight
// hierarchy specs over the 28-benchmark catalog) whose runs take a poll
// interval each, one at a time, is polled a few hundred times; WaitSweep
// may receive one full answer, each cell once more per transition, and a
// small envelope per poll — under 4x the status it returns, where
// re-sending every record on every poll reads over 40x. What it returns
// is what a fresh full fetch returns.
func TestWaitSweepBytesAreLinear(t *testing.T) {
	ts, _ := stubServer(t, orchestrator.Config{
		Workers: 1,
		Run: func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
			time.Sleep(time.Millisecond)
			return instantRun(ctx, j, progress)
		},
	})
	counter := &sweepPollBytes{}
	client := lightnuca.NewClient(ts.URL)
	client.PollInterval = time.Millisecond
	client.HTTPClient = &http.Client{Transport: counter}
	ctx := context.Background()

	sub, err := client.SubmitSweep(ctx, lightnuca.Sweep{
		Hierarchies: []string{"conventional", "ln+l3", "dn-4x8", "ln+dn-4x8"},
		Levels:      []int{2, 3, 4},
		Benchmarks:  lightnuca.Benchmarks(),
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Jobs) < 200 {
		t.Fatalf("sweep expanded to %d cells, want at least 200", len(sub.Jobs))
	}
	st, err := client.WaitSweep(ctx, sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	received, polls := counter.n.Load(), counter.polls.Load()

	final, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cells, %d polls: %d bytes received, final status %d bytes (%.1fx)",
		st.Total, polls, received, len(final), float64(received)/float64(len(final)))
	if polls < 10 {
		t.Fatalf("only %d polls: the sweep was too short to tell a delta from a full answer", polls)
	}
	if received > 4*int64(len(final)) {
		t.Errorf("WaitSweep received %d bytes over %d polls, more than 4x the %d-byte status it returned",
			received, polls, len(final))
	}

	if !st.Done || len(st.Jobs) != len(sub.Jobs) {
		t.Fatalf("WaitSweep returned done=%v with %d of %d cells", st.Done, len(st.Jobs), len(sub.Jobs))
	}
	for i, j := range st.Jobs {
		if j.ID != sub.Jobs[i].ID || j.Status != lightnuca.StatusDone || j.Result == nil {
			t.Fatalf("cell %d: %s %s result=%v, submitted as %s", i, j.ID, j.Status, j.Result, sub.Jobs[i].ID)
		}
	}
	fresh, err := client.Sweep(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, fresh) {
		t.Errorf("WaitSweep's merged status differs from a fresh GET /v1/sweeps/%s", sub.ID)
	}
}

// TestWaitSweepMerge: a cell the sweep lists twice is one job at two
// positions, and both end with its result; and a service that ignores
// since= (every answer is the full one) merges to the same final status.
// Snapshots handed to onUpdate are the callback's to keep.
func TestWaitSweepMerge(t *testing.T) {
	for _, ignoreSince := range []bool{false, true} {
		orch := orchestrator.New(orchestrator.Config{
			Workers: 1,
			Run: func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
				time.Sleep(2 * time.Millisecond)
				return instantRun(ctx, j, progress)
			},
		})
		api := orchestrator.NewServer(orch)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if ignoreSince {
				r.URL.RawQuery = ""
			}
			api.ServeHTTP(w, r)
		}))
		client := lightnuca.NewClient(ts.URL)
		client.PollInterval = time.Millisecond
		ctx := context.Background()

		var snaps []lightnuca.SweepStatus
		st, err := client.RunSweep(ctx, lightnuca.Sweep{
			Hierarchies: []string{"conventional", "ln+l3"},
			Benchmarks:  []string{"403.gcc", "429.mcf", "403.gcc", "470.lbm"},
			Seed:        1,
		}, func(s lightnuca.SweepStatus) { snaps = append(snaps, s) })
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Jobs) != 8 || st.Jobs[0].ID != st.Jobs[2].ID || st.Jobs[0].ID == st.Jobs[1].ID {
			t.Fatalf("ignoreSince=%v: %d cells, IDs %s %s %s", ignoreSince, len(st.Jobs), st.Jobs[0].ID, st.Jobs[1].ID, st.Jobs[2].ID)
		}
		for i, j := range st.Jobs {
			if j.Status != lightnuca.StatusDone || j.Result == nil {
				t.Errorf("ignoreSince=%v: cell %d ended %s, result %v", ignoreSince, i, j.Status, j.Result)
			}
		}
		fresh, err := client.Sweep(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, fresh) {
			t.Errorf("ignoreSince=%v: merged status differs from a fresh full fetch", ignoreSince)
		}
		if len(snaps) < 3 || snaps[0].Done || snaps[0].Jobs[7].Status.Terminal() || !snaps[len(snaps)-1].Done {
			t.Errorf("ignoreSince=%v: %d snapshots; the first must still show the last cell live after the merges that followed",
				ignoreSince, len(snaps))
		}
		ts.Close()
		orch.Close()
	}
}
