package orchestrator

import (
	"net/http"
	"reflect"
	"testing"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/workload"
)

// TestRequestKeyMatchesJobGolden: the declarative Request path must
// resolve to byte-for-byte the key of the Job TestJobKeyGolden pins for
// the same run — a request never moves an on-disk cache entry.
func TestRequestKeyMatchesJobGolden(t *testing.T) {
	golden := []struct {
		req Request
		job Job
	}{
		{Request{Hierarchy: "conventional", Benchmark: "403.gcc", Mode: "quick", Seed: 1},
			Job{Kind: hier.Conventional, Benchmark: "403.gcc", Mode: exp.Quick, Seed: 1}},
		{Request{Hierarchy: "ln+l3", Levels: 3, Benchmark: "429.mcf", Mode: "full", Seed: 7},
			Job{Kind: hier.LNUCAL3, Levels: 3, Benchmark: "429.mcf", Mode: exp.Full, Seed: 7}},
		{Request{Hierarchy: "dn-4x8", Benchmark: "470.lbm", Mode: "quick", Seed: 1},
			Job{Kind: hier.DNUCAOnly, Benchmark: "470.lbm", Mode: exp.Quick, Seed: 1}},
		{Request{Hierarchy: "ln+dn-4x8", Levels: 2, Benchmark: "482.sphinx3", Mode: "quick", Seed: 3},
			Job{Kind: hier.LNUCADNUCA, Levels: 2, Benchmark: "482.sphinx3", Mode: exp.Quick, Seed: 3}},
		{Request{Hierarchy: "ln+l3", Cores: 4, Mix: "mixed", Mode: "quick", Seed: 1},
			Job{Kind: hier.LNUCAL3, Cores: 4, Mix: "mixed", Mode: exp.Quick, Seed: 1}},
		{Request{Hierarchy: "conventional", Cores: 2, Mix: "403.gcc,470.lbm", Mode: "quick", Seed: 5},
			Job{Kind: hier.Conventional, Cores: 2, Mix: "403.gcc,470.lbm", Mode: exp.Quick, Seed: 5}},
	}
	for i, g := range golden {
		nj, err := g.job.Normalize()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := g.req.Key()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != nj.Key() {
			t.Errorf("case %d (%s): request key diverged from the job's:\n got %s\nwant %s",
				i, g.req.Hierarchy, got, nj.Key())
		}
		// Alias spellings and the stamped schema are the same content.
		withSchema := g.req
		withSchema.Schema = RequestSchema
		if k2, _ := withSchema.Key(); k2 != got {
			t.Errorf("case %d: explicit schema changed the key", i)
		}
	}
}

// TestRequestParseAliasesAndDefaults: alias hierarchy spellings, empty
// mode, and zero seed normalize onto the same content.
func TestRequestParseAliasesAndDefaults(t *testing.T) {
	base, err := Request{Hierarchy: "ln+l3", Benchmark: "403.gcc", Mode: "quick", Seed: 1}.Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, alias := range []Request{
		{Hierarchy: "LNUCA", Benchmark: "403.gcc"},                               // alias, default mode+seed
		{Hierarchy: "ln", Benchmark: "403.gcc", Seed: 1},                         // short alias
		{Hierarchy: "ln+l3", Levels: 3, Benchmark: "403.gcc"},                    // explicit default depth
		{Hierarchy: "ln+l3", Benchmark: "403.gcc", Warmup: 4000, Measure: 20000}, // quick windows spelled out
	} {
		got, err := alias.Key()
		if err != nil {
			t.Fatalf("%+v: %v", alias, err)
		}
		if got != base {
			t.Errorf("%+v: key %s != base %s", alias, got, base)
		}
	}
}

// TestRequestSchemaVersioning: only lnuca-run-v1 (or empty) is decoded.
func TestRequestSchemaVersioning(t *testing.T) {
	bad := Request{Schema: "lnuca-run-v2", Hierarchy: "ln+l3", Benchmark: "403.gcc"}
	if _, err := bad.Job(); err == nil {
		t.Fatal("future schema version accepted")
	}
	if _, err := (SweepRequest{Schema: "nope", Hierarchies: []string{"ln+l3"}}).Expand(); err == nil {
		t.Fatal("bad sweep schema accepted")
	}
	n, err := Request{Hierarchy: "ln+l3", Benchmark: "403.gcc"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Schema != RequestSchema {
		t.Fatalf("Normalize stamped schema %q", n.Schema)
	}
	if n.Hierarchy != "ln+l3" || n.Mode != "quick" || n.Seed != 1 || n.Levels != 3 {
		t.Fatalf("normalized request %+v", n)
	}
}

// TestRequestOfRoundTrip: RequestOf(j).Job() must reproduce j's key for
// every golden job shape, including custom windows and resolved mixes.
func TestRequestOfRoundTrip(t *testing.T) {
	jobs := []Job{
		{Kind: hier.Conventional, Benchmark: "403.gcc", Mode: exp.Quick, Seed: 1},
		{Kind: hier.LNUCAL3, Levels: 4, Benchmark: "429.mcf", Mode: exp.Full, Seed: 7},
		{Kind: hier.LNUCAL3, Levels: 2, Benchmark: "470.lbm",
			Mode: exp.Mode{Name: "sweep", Measure: 30000}, Seed: 2},
		{Kind: hier.LNUCADNUCA, Cores: 4, Mix: "random", Mode: exp.Quick, Seed: 11},
	}
	for i, j := range jobs {
		nj, err := j.Normalize()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		back, err := RequestOf(nj).Job()
		if err != nil {
			t.Fatalf("case %d: round trip: %v", i, err)
		}
		if back.Key() != nj.Key() {
			t.Errorf("case %d: round-tripped key %s != %s", i, back.Key(), nj.Key())
		}
	}
}

// TestSweepRequestExpand: the declarative sweep expands to exactly what
// ExpandSweep produces, cell for cell, with priority fanned out.
func TestSweepRequestExpand(t *testing.T) {
	sw := SweepRequest{
		Hierarchies: []string{"conventional", "ln+l3"},
		Levels:      []int{2, 3},
		Benchmarks:  []string{"403.gcc", "429.mcf"},
		Mode:        "quick",
		Seed:        5,
		Priority:    9,
	}
	reqs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// conventional contributes 1 level-config, ln+l3 two: (1+2)*2 cells.
	if len(reqs) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(reqs))
	}
	want := ExpandSweep([]hier.Kind{hier.Conventional, hier.LNUCAL3}, []int{2, 3},
		[]string{"403.gcc", "429.mcf"}, exp.Quick, 5)
	for i, r := range reqs {
		if r.Priority != 9 {
			t.Errorf("cell %d: priority %d", i, r.Priority)
		}
		j, err := r.Job()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		nw, err := want[i].Normalize()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if j.Key() != nw.Key() {
			t.Errorf("cell %d: key %s != ExpandSweep key %s", i, j.Key(), nw.Key())
		}
	}

	// Empty benchmark list means the whole catalog.
	full, err := SweepRequest{Hierarchies: []string{"dn-4x8"}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(workload.Names()) {
		t.Fatalf("default sweep has %d cells, want %d", len(full), len(workload.Names()))
	}

	// Jobs() parses every cell.
	jobs, err := sw.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(reqs) {
		t.Fatalf("Jobs() returned %d, Expand() %d", len(jobs), len(reqs))
	}

	if _, err := (SweepRequest{}).Expand(); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := (SweepRequest{Hierarchies: []string{"bogus"}}).Expand(); err == nil {
		t.Fatal("unknown hierarchy accepted")
	}
}

// TestServerRejectsForeignSchema: the HTTP decoder must refuse a body
// stamped with a schema version it does not speak.
func TestServerRejectsForeignSchema(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]interface{}{
		"schema":    "lnuca-run-v99",
		"hierarchy": "ln+l3",
		"benchmark": "403.gcc",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("foreign schema: got %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]interface{}{
		"schema":    RequestSchema,
		"hierarchy": "ln+l3",
		"benchmark": "403.gcc",
	})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 schema: got %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestRequestOfPreservesMixSpec: a random mix request round-trips with
// its spec and seed, so re-normalizing draws the same benchmarks.
func TestRequestOfPreservesMixSpec(t *testing.T) {
	j, err := Job{Kind: hier.Conventional, Cores: 4, Mix: "random", Mode: exp.Quick, Seed: 9}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	back, err := RequestOf(j).Job()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.MixBenchmarks, j.MixBenchmarks) {
		t.Fatalf("round trip drew %v, want %v", back.MixBenchmarks, j.MixBenchmarks)
	}
}
