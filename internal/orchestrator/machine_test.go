package orchestrator

import (
	"context"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// plainGCC is the LN3 / 403.gcc / quick / seed 1 request without a
// machine; TestRequestParseAliasesAndDefaults pins its key.
var plainGCC = Request{Hierarchy: "ln+l3", Benchmark: "403.gcc"}

func withMachine(r Request, m map[string]float64) Request {
	r.Machine = m
	return r
}

// TestMachineKeyGolden: a machine that sets a row appends
// "|machine=<pairs>" to the canon, pairs sorted; a machine that sets
// nothing — rows at Table I, rows for a component the hierarchy does not
// build — keys exactly as the request without one. The hashes are of the
// canon strings spelled out here, not of what Key computes.
func TestMachineKeyGolden(t *testing.T) {
	for _, c := range []struct {
		req  Request
		key  string // sha256 of canon
		conf string
	}{
		// lnuca-job-v6|hier=LN+L3|levels=3|bench=403.gcc|cores=0|mix=|warmup=4000|measure=20000|seed=1
		{plainGCC, "4726c2b782676ecaa5a626474676d8e605ece7d211cf06aff0bf81d269691953", "LN3-144KB"},
		{withMachine(plainGCC, map[string]float64{"ln.link_buf": 2, "ln.tile_kb": 8}),
			"4726c2b782676ecaa5a626474676d8e605ece7d211cf06aff0bf81d269691953", "LN3-144KB"},
		// ... + |machine=ln.link_buf=1
		{withMachine(plainGCC, map[string]float64{"ln.link_buf": 1}),
			"a58ccec954b98ae39bc9d0360602aa5e4e6bf9675272b8329bb4593dbc44c604", "LN3-144KB {ln.link_buf=1}"},
		// lnuca-job-v6|hier=LN+DN-4x8|levels=2|bench=|cores=2|mix=403.gcc,470.lbm|warmup=500|measure=3000|seed=5|machine=ln.routing=1,ln.tile_kb=4
		{Request{Hierarchy: "ln+dn", Levels: 2, Cores: 2, Mix: "403.gcc,470.lbm", Warmup: 500, Measure: 3000, Seed: 5,
			Machine: map[string]float64{"ln.tile_kb": 4, "ln.routing": 1}},
			"671608f188d7136d33c543f57f70320858e1e693429a33dd9d10d18647637db7", "2x LN2 + DN-4x8 {ln.routing=1,ln.tile_kb=4}"},
		// conventional has no fabric: the golden key of TestJobKeyGolden.
		{Request{Hierarchy: "conventional", Benchmark: "403.gcc", Mode: "quick", Seed: 1, Machine: map[string]float64{"ln.link_buf": 1}},
			"84b8786005e0a87f62d725b9c917791f5d426ede40d38a0a24ff59ebec48f985", "L2-256KB"},
	} {
		j, err := c.req.Job()
		if err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		if j.Key() != c.key || j.Hierarchy != c.conf {
			t.Errorf("%+v: key %s, config %q; want %s, %q", c.req, j.Key(), j.Hierarchy, c.key, c.conf)
		}
		// The request a journal line or a lease carries keys the same.
		if back, err := RequestOf(j).Job(); err != nil || back.Key() != c.key {
			t.Errorf("%+v: RequestOf round trip: %v, %v", c.req, back.Key(), err)
		}
	}
}

// badMachines are refused by Request.Job and by POST /v1/jobs.
var badMachines = []map[string]float64{
	{"ln.linkbuf": 1},       // unknown name
	{"l2.mshr": 16},         // a row nobody has added yet
	{"ln.link_buf": 0},      // below the range
	{"ln.link_buf": 9},      // above it
	{"ln.routing": 0.5},     // not an integer
	{"ln.tile_kb": 3},       // in range, but 48 sets: cache.BankConfig.Validate refuses it
	{"ln.tile_kb": -1e-300}, // not an integer, and below the range
}

func TestMachineRefused(t *testing.T) {
	for _, m := range badMachines {
		for _, h := range []string{"ln+l3", "conventional"} {
			r := Request{Hierarchy: h, Benchmark: "403.gcc", Machine: m}
			if _, err := r.Job(); err == nil {
				t.Errorf("%s %v: accepted", h, m)
			} else if !strings.Contains(err.Error(), "machine") {
				t.Errorf("%s %v: %v does not say machine", h, m, err)
			}
		}
	}
	_, err := withMachine(plainGCC, map[string]float64{"ln.linkbuf": 1}).Job()
	for _, row := range []string{"ln.link_buf 1..8", "ln.routing 0..1", "ln.tile_kb 2..16"} {
		if err == nil || !strings.Contains(err.Error(), row) {
			t.Errorf("unknown name: %v does not list %q", err, row)
		}
	}
}

func TestHTTPMachineRefusedNothingJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.journal")
	j := journalAt(t, path)
	ts, o := newTestServer(t, Config{Workers: 1, Journal: j})
	for _, m := range badMachines {
		resp := postJSON(t, ts.URL+"/v1/jobs", withMachine(plainGCC, m))
		var body struct{ Error string }
		decodeBody(t, resp, &body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "machine") {
			t.Errorf("%v: %d %q, want 400 naming the machine", m, resp.StatusCode, body.Error)
		}
	}
	if m := o.Metrics(); m.Submitted != 0 {
		t.Fatalf("%d submissions counted", m.Submitted)
	}
	j.Close()
	if pend := journalAt(t, path).Pending(); len(pend) != 0 {
		t.Fatalf("journaled %+v", pend)
	}
}

// TestMachineSurvivesJournal: a pending machine request comes back from
// the journal as the request it was, under the same key.
func TestMachineSurvivesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.journal")
	job, err := withMachine(plainGCC, map[string]float64{"ln.tile_kb": 16, "ln.routing": 1}).Job()
	if err != nil {
		t.Fatal(err)
	}
	j := journalAt(t, path)
	j.submitted("job-000001", job.Key(), RequestOf(job))
	j.Close()
	pend := journalAt(t, path).Pending()
	if len(pend) != 1 || !reflect.DeepEqual(pend[0].Machine, map[string]float64{"ln.routing": 1, "ln.tile_kb": 16}) {
		t.Fatalf("pending %+v", pend)
	}
	if key, err := pend[0].Key(); err != nil || key != job.Key() {
		t.Fatalf("replayed key %s, %v; want %s", key, err, job.Key())
	}
}

// TestMixBaselinesUnderMachine: a mix's weighted-speedup baselines are
// single-core runs of the same machine, not of Table I.
func TestMixBaselinesUnderMachine(t *testing.T) {
	machine := map[string]float64{"ln.link_buf": 1}
	mix, err := Request{Hierarchy: "ln+l3", Cores: 2, Mix: "403.gcc,429.mcf", Warmup: 300, Measure: 1500, Machine: machine}.Job()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(NewCache(0, ""), nil)
	var mu sync.Mutex
	var baselines []string
	e.exec = func(ctx context.Context, j Job, _ func(uint64, uint64)) (*JobResult, error) {
		mu.Lock()
		baselines = append(baselines, j.Key())
		mu.Unlock()
		return &JobResult{Config: j.Hierarchy, Benchmark: j.Benchmark, IPC: 1, Cycles: 1}, nil
	}
	res, err := e.Run(context.Background(), mix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != "2x LN3-144KB {ln.link_buf=1}" {
		t.Errorf("mix config %q", res.Config)
	}
	for i, b := range []string{"403.gcc", "429.mcf"} {
		want, err := Request{Hierarchy: "ln+l3", Benchmark: b, Warmup: 300, Measure: 1500, Machine: machine}.Key()
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(baselines) || baselines[i] != want {
			t.Errorf("baseline %s: keyed %v, want %s", b, baselines, want)
		}
	}
}
