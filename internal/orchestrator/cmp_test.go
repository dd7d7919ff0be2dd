package orchestrator

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/hier"
)

// TestJobKeyGolden pins the content-key schema. These hashes are part of
// the on-disk cache contract: if this test fails, cached results written
// by other builds will not be found (or worse, the canon string became
// ambiguous). Bump KeySchema and regenerate the constants deliberately —
// never let them drift as a side effect. It is the one place the job
// keys are spelled out; the parity tests compare against Job.Key.
func TestJobKeyGolden(t *testing.T) {
	golden := []struct {
		job Job
		key string
	}{
		{Job{Kind: hier.Conventional, Benchmark: "403.gcc", Mode: exp.Quick, Seed: 1},
			"fa310c2333098aa40cec9bcb75ff176f074b0ca420c7cc081b10bec4cd267ab0"},
		{Job{Kind: hier.LNUCAL3, Levels: 3, Benchmark: "429.mcf", Mode: exp.Full, Seed: 7},
			"7b205b5d2e6431c64887e7d4a70877ff78375ec543f1e9c906b21b95f9f71a10"},
		{Job{Kind: hier.DNUCAOnly, Benchmark: "470.lbm", Mode: exp.Quick, Seed: 1},
			"753c99d970b2e95349daebf30a8356801df6b7b5b765ffc845229425ce6d5923"},
		{Job{Kind: hier.LNUCADNUCA, Levels: 2, Benchmark: "482.sphinx3", Mode: exp.Quick, Seed: 3},
			"79e4973279baabefa34a3d9671a2c987cbe11ad18cd691f0c234d11951b155f8"},
		{Job{Kind: hier.LNUCAL3, Cores: 4, Mix: "mixed", Mode: exp.Quick, Seed: 1},
			"26367b547b2bde594d729ba075c97d73dca76e9445dedd58370a16a67acadbd5"},
		{Job{Kind: hier.Conventional, Cores: 2, Mix: "403.gcc,470.lbm", Mode: exp.Quick, Seed: 5},
			"352ff53f8ba60e86b094e0021c755a72f9887835d1b2f789ee84160eb7cf7a29"},
	}
	for i, g := range golden {
		n, err := g.job.Normalize()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := n.Key(); got != g.key {
			t.Errorf("case %d (%s/%s): key drifted:\n got %s\nwant %s",
				i, n.Hierarchy, n.Benchmark+n.Mix, got, g.key)
		}
	}
}

// TestJobKeyUsesStableLabelNotEnum: the raw numeric hier.Kind must not
// appear in the canon — reordering the enum would silently alias cached
// results on disk.
func TestJobKeyUsesStableLabelNotEnum(t *testing.T) {
	kinds := map[hier.Kind]bool{}
	keys := map[string]hier.Kind{}
	for _, k := range []hier.Kind{hier.Conventional, hier.LNUCAL3, hier.DNUCAOnly, hier.LNUCADNUCA} {
		kinds[k] = true
		j, err := Job{Kind: k, Benchmark: "403.gcc"}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		key := j.Key()
		if prev, dup := keys[key]; dup {
			t.Fatalf("kinds %v and %v share a key", prev, k)
		}
		keys[key] = k
	}
}

func TestNormalizeMixJobs(t *testing.T) {
	j, err := Job{Kind: hier.LNUCAL3, Cores: 4, Mix: "mixed"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(j.MixBenchmarks) != 4 {
		t.Fatalf("resolved %v", j.MixBenchmarks)
	}
	if j.Hierarchy != "4x LN3-144KB" {
		t.Errorf("hierarchy label = %q", j.Hierarchy)
	}
	if j.Benchmark != "" {
		t.Errorf("mix job kept benchmark %q", j.Benchmark)
	}

	// A named mix and its explicit expansion are the same content.
	explicit, err := Job{Kind: hier.LNUCAL3, Cores: 4,
		Mix: "400.perlbench,410.bwaves,401.bzip2,416.gamess"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.MixBenchmarks, explicit.MixBenchmarks) {
		t.Logf("mixed = %v, explicit = %v (update this test if the pools changed)",
			j.MixBenchmarks, explicit.MixBenchmarks)
	} else if j.Key() != explicit.Key() {
		t.Error("identical resolved mixes got distinct keys")
	}

	// Random draws are keyed on what they resolved to: same seed same
	// key, different seed different key.
	r1, err := Job{Kind: hier.Conventional, Cores: 4, Mix: "random", Seed: 9}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := Job{Kind: hier.Conventional, Cores: 4, Mix: "random", Seed: 9}.Normalize()
	r3, _ := Job{Kind: hier.Conventional, Cores: 4, Mix: "random", Seed: 10}.Normalize()
	if r1.Key() != r2.Key() {
		t.Error("same random draw, different keys")
	}
	if r1.Key() == r3.Key() {
		t.Error("different random draws share a key")
	}

	// Invalid combinations.
	if _, err := (Job{Kind: hier.LNUCAL3, Cores: 4, Mix: "mixed", Benchmark: "403.gcc"}).Normalize(); err == nil {
		t.Error("benchmark+mix accepted")
	}
	if _, err := (Job{Kind: hier.LNUCAL3, Cores: 1, Mix: "mixed"}).Normalize(); err == nil {
		t.Error("cores 1 accepted")
	}
	if _, err := (Job{Kind: hier.LNUCAL3, Mix: "mixed", Benchmark: "403.gcc"}).Normalize(); err == nil {
		t.Error("mix without cores accepted")
	}
	if _, err := (Job{Kind: hier.LNUCAL3, Cores: 99, Mix: "mixed"}).Normalize(); err == nil {
		t.Error("99 cores accepted")
	}
	if _, err := (Job{Kind: hier.LNUCAL3, Cores: 2, Mix: "no-such-mix"}).Normalize(); err == nil {
		t.Error("unknown mix accepted")
	}
	if _, err := (Job{Kind: hier.LNUCAL3, Cores: 2, Mix: "403.gcc,429.mcf,470.lbm"}).Normalize(); err == nil {
		t.Error("mix/cores length mismatch accepted")
	}
}

// TestCacheDiscardsCorruptEntry: a corrupt store file must degrade to a
// miss exactly once — the file is removed, the result recomputed and
// re-stored — not to a miss on every lookup forever.
func TestCacheDiscardsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	for name, payload := range map[string]string{
		"truncated": `{"config":"L2-256KB","benchmark":"403.gcc","ipc":1.2`,
		"not-json":  "simulator crashed mid-write",
		// Parses, but is no JobResult: everything zero.
		"foreign": `{"hello":"world"}`,
	} {
		t.Run(name, func(t *testing.T) {
			c := NewCache(0, dir)
			key := "deadbeef-" + name
			path := filepath.Join(dir, key+".json")
			if err := os.WriteFile(path, []byte(payload), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file survived the miss (err=%v)", err)
			}
			// The key is clean again: a Put round-trips normally.
			c.Put(key, &JobResult{Config: "L2-256KB", Benchmark: "403.gcc", IPC: 1.2, Cycles: 10})
			c2 := NewCache(0, dir)
			if res, ok := c2.Get(key); !ok || res.IPC != 1.2 {
				t.Fatalf("recomputed result not served: ok=%v res=%+v", ok, res)
			}
		})
	}
}

// tinyMode keeps real CMP simulations in tests fast while still
// exercising warmup and measurement.
var tinyMode = exp.Mode{Name: "tiny", Warmup: 1_000, Measure: 4_000}

// TestMixJobEndToEnd runs a real 2-core mix through the default
// Engine.Run path: per-core results, throughput, weighted speedup from
// cached baselines, and a second submission served 100% from cache.
func TestMixJobEndToEnd(t *testing.T) {
	o := New(Config{Workers: 1})
	defer o.Close()

	mix := Job{Kind: hier.Conventional, Cores: 2, Mix: "403.gcc,456.hmmer", Mode: tinyMode, Seed: 1}
	rec, err := o.Submit(mix)
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, o, rec.ID)
	if done.Status != StatusDone {
		t.Fatalf("mix job failed: %+v", done)
	}
	res := done.Result
	if res.Cores != 2 || len(res.PerCore) != 2 {
		t.Fatalf("per-core results: %+v", res)
	}
	var sum float64
	for i, c := range res.PerCore {
		if c.IPC <= 0 {
			t.Fatalf("core %d IPC %v", i, c.IPC)
		}
		sum += c.IPC
	}
	if res.ThroughputIPC != sum {
		t.Fatalf("throughput %v != per-core sum %v", res.ThroughputIPC, sum)
	}
	// Two cores sharing one LLC: weighted speedup lands in (0, 2].
	if res.WeightedSpeedup <= 0 || res.WeightedSpeedup > 2.0001 {
		t.Fatalf("weighted speedup %v outside (0,2]", res.WeightedSpeedup)
	}

	// The baselines were memoized under their own single-core keys.
	for _, bench := range []string{"403.gcc", "456.hmmer"} {
		res, ok, err := o.Lookup(Job{Kind: hier.Conventional, Benchmark: bench, Mode: tinyMode, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !ok || res.IPC <= 0 {
			t.Fatalf("baseline %s not cached (ok=%v)", bench, ok)
		}
	}

	// Resubmission: pure cache hit, no new simulation.
	executedBefore := o.Metrics().Executed
	rec2, err := o.Submit(mix)
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.Cached || rec2.Status != StatusDone {
		t.Fatalf("resubmitted mix not served from cache: %+v", rec2)
	}
	if got := o.Metrics().Executed; got != executedBefore {
		t.Fatalf("resubmission simulated again: executed %d -> %d", executedBefore, got)
	}

	// A baseline submitted as its own job is also a pure cache hit.
	recBase, err := o.Submit(Job{Kind: hier.Conventional, Benchmark: "403.gcc", Mode: tinyMode, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !recBase.Cached {
		t.Fatalf("baseline resubmission missed the cache: %+v", recBase)
	}
}

// TestMixBaselineSingleflight: two concurrent mix runs that share their
// baseline benchmarks must not duplicate baseline simulations — the
// engine's per-key singleflight serializes them through the cache.
// Every simulation leaves one lnuca.run.measure span, so the span count
// is the run count: two mixes plus one run per distinct baseline.
func TestMixBaselineSingleflight(t *testing.T) {
	cache := NewCache(0, "")
	e := NewEngine(cache, nil)
	ctx, sims := countSims(context.Background())

	mixes := []string{"403.gcc,456.hmmer", "456.hmmer,403.gcc"}
	results := make([]*JobResult, len(mixes))
	errs := make([]error, len(mixes))
	var wg sync.WaitGroup
	for i, m := range mixes {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			j, err := Job{Kind: hier.Conventional, Cores: 2, Mix: m, Mode: tinyMode, Seed: 1}.Normalize()
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = e.Run(ctx, j, nil)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mix %d: %v", i, err)
		}
	}
	if got := sims(); got != 4 {
		t.Fatalf("%d simulations, want 4 (2 mixes + 1 per distinct baseline)", got)
	}
	// 2 mix baselines cached (Run does not publish the mix results
	// themselves; Do and the orchestrator worker do).
	if got := cache.Len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2 baselines", got)
	}
	for i, r := range results {
		if r.WeightedSpeedup <= 0 {
			t.Fatalf("mix %d: weighted speedup %v", i, r.WeightedSpeedup)
		}
	}
}

// TestHTTPMixJob drives the cores/mix schema through the HTTP API with a
// stubbed runner, then reads the result back through /v1/results.
func TestHTTPMixJob(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})

	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]interface{}{
		"hierarchy": "ln+l3",
		"cores":     4,
		"mix":       "memory",
		"seed":      3,
	})
	var rec JobRecord
	decodeBody(t, resp, &rec)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST mix job: %d", resp.StatusCode)
	}
	if rec.Job.Cores != 4 || len(rec.Job.MixBenchmarks) != 4 {
		t.Fatalf("mix not resolved in record: %+v", rec.Job)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, r, &rec)
		if rec.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mix job stuck: %+v", rec)
		}
		time.Sleep(time.Millisecond)
	}
	if rec.Status != StatusDone {
		t.Fatalf("mix job: %+v", rec)
	}

	// Direct cache lookup with the cores/mix query schema.
	url := fmt.Sprintf("%s/v1/results?hierarchy=ln%%2bl3&cores=4&mix=memory&seed=3", ts.URL)
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var res JobResult
	decodeBody(t, r, &res)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results for mix: %d", r.StatusCode)
	}

	// An invalid mix is rejected up front.
	resp = postJSON(t, ts.URL+"/v1/jobs", map[string]interface{}{
		"hierarchy": "ln+l3",
		"cores":     3,
		"mix":       "403.gcc,429.mcf", // wrong length
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad mix: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSweepStillSingleCore guards the existing sweep expansion against
// the new fields: expanded jobs are single-core.
func TestSweepStillSingleCore(t *testing.T) {
	jobs := ExpandSweep([]hier.Kind{hier.Conventional}, nil, []string{"403.gcc"}, exp.Quick, 1)
	for _, j := range jobs {
		if j.IsMix() {
			t.Fatalf("sweep produced a mix job: %+v", j)
		}
	}
}
