package lightnuca_test

// Key-parity tests for the unified RunRequest schema: the same logical
// run, entered through the library (Local), the service (Client over
// HTTP), or the CLI flag shapes (lnucasim/lnucasweep), must resolve to
// the identical job key (KeySchema) — that identity is what lets
// every front-end share one result cache.

import (
	"context"
	"net/http/httptest"
	"testing"

	lightnuca "repro"
	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/orchestrator"
)

// stubServer wires an httptest lnucad around an orchestrator; run may be
// nil for the real simulation path.
func stubServer(t *testing.T, cfg orchestrator.Config) (*httptest.Server, *orchestrator.Orchestrator) {
	t.Helper()
	orch := orchestrator.New(cfg)
	ts := httptest.NewServer(orchestrator.NewServer(orch))
	t.Cleanup(func() {
		ts.Close()
		orch.Close()
	})
	return ts, orch
}

// instantRun is a stub RunFunc: submission, normalization and keying are
// exercised for real, only the simulation is skipped.
func instantRun(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
	res := &orchestrator.JobResult{Config: j.Hierarchy, Benchmark: j.Benchmark, IPC: 1, Cycles: 1}
	if j.IsMix() {
		res.Benchmark = ""
		res.Cores = j.Cores
		for _, b := range j.MixBenchmarks {
			res.PerCore = append(res.PerCore, lightnuca.CoreResult{Benchmark: b, IPC: 1})
		}
	}
	return res, nil
}

// TestKeyParityGolden pins the cross-entry-path contract: the library
// Request, an HTTP submission of the same JSON, and the CLI flag shapes
// all land on the key of the orchestrator Job the flags used to build
// directly — one of those TestJobKeyGolden pins — single-core and 4-core
// mix.
func TestKeyParityGolden(t *testing.T) {
	cases := []struct {
		name string
		req  lightnuca.Request
		job  orchestrator.Job
	}{
		{"single-core", lightnuca.Request{Hierarchy: "conventional", Benchmark: "403.gcc", Mode: "quick", Seed: 1},
			orchestrator.Job{Kind: hier.Conventional, Benchmark: "403.gcc", Mode: exp.Quick, Seed: 1}},
		{"4-core-mix", lightnuca.Request{Hierarchy: "ln+l3", Cores: 4, Mix: "mixed", Mode: "quick", Seed: 1},
			orchestrator.Job{Kind: hier.LNUCAL3, Cores: 4, Mix: "mixed", Mode: exp.Quick, Seed: 1}},
	}

	ts, _ := stubServer(t, orchestrator.Config{Workers: 2, Run: instantRun})
	client := lightnuca.NewClient(ts.URL)
	ctx := context.Background()

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// CLI path (lnucasim -cores/-mix/-hier and the old sweep
			// construction): the Job the flags used to build directly.
			nj, err := c.job.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			want := nj.Key()

			// Library path: the declarative request keys itself.
			libKey, err := c.req.Key()
			if err != nil {
				t.Fatal(err)
			}
			if libKey != want {
				t.Fatalf("library key %s, want the job's %s", libKey, want)
			}

			// HTTP path: the service's record carries the key it filed
			// the run under.
			rec, err := client.Submit(ctx, c.req)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Key != want {
				t.Fatalf("HTTP-submitted key %s, want the job's %s", rec.Key, want)
			}
		})
	}
}

// TestKeyParityExecuted runs the same tiny logical run for real through
// Local and through Client/HTTP and checks both report the same key and
// the same measurement, with the lnucasweep flag shape (bare -instr,
// i.e. a measure-only custom window) agreeing on the key.
func TestKeyParityExecuted(t *testing.T) {
	req := lightnuca.Request{
		Hierarchy: "ln+l3",
		Benchmark: "453.povray",
		Warmup:    500,
		Measure:   2500,
		Seed:      1,
	}
	ctx := context.Background()

	local := &lightnuca.Local{}
	viaLocal, err := local.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	ts, _ := stubServer(t, orchestrator.Config{Workers: 1}) // real simulation path
	viaHTTP, err := lightnuca.NewClient(ts.URL).Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	if viaLocal.Key != viaHTTP.Key {
		t.Fatalf("Local key %s != HTTP key %s", viaLocal.Key, viaHTTP.Key)
	}
	if viaLocal.IPC != viaHTTP.IPC || viaLocal.Cycles != viaHTTP.Cycles {
		t.Fatalf("Local (IPC %v, %d cycles) != HTTP (IPC %v, %d cycles)",
			viaLocal.IPC, viaLocal.Cycles, viaHTTP.IPC, viaHTTP.Cycles)
	}

	// lnucasweep's flag shape: measure-only window, named internal mode.
	sweepJob, err := orchestrator.Job{
		Kind: hier.LNUCAL3, Levels: 3, Benchmark: req.Benchmark,
		Mode: exp.Mode{Name: "sweep", Warmup: req.Warmup, Measure: req.Measure},
		Seed: req.Seed,
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if sweepJob.Key() != viaLocal.Key {
		t.Fatalf("sweep-flag key %s != executed key %s", sweepJob.Key(), viaLocal.Key)
	}

	// The executed result round-trips the shared cache: rerunning via
	// Local is a hit, not a simulation.
	again, err := local.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("identical rerun missed the Local cache")
	}
	if again.IPC != viaLocal.IPC {
		t.Fatalf("cached IPC %v != simulated %v", again.IPC, viaLocal.IPC)
	}
}

// TestKeyParityExecutedMix runs a tiny 2-core mix through Local and the
// HTTP path and checks key and weighted-speedup parity.
func TestKeyParityExecutedMix(t *testing.T) {
	req := lightnuca.Request{
		Hierarchy: "conventional",
		Cores:     2,
		Mix:       "403.gcc,456.hmmer",
		Warmup:    500,
		Measure:   2000,
		Seed:      1,
	}
	ctx := context.Background()

	local := &lightnuca.Local{}
	viaLocal, err := local.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if viaLocal.Cores != 2 || len(viaLocal.PerCore) != 2 {
		t.Fatalf("mix result shape: %+v", viaLocal)
	}

	ts, _ := stubServer(t, orchestrator.Config{Workers: 1})
	viaHTTP, err := lightnuca.NewClient(ts.URL).Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if viaLocal.Key != viaHTTP.Key {
		t.Fatalf("Local mix key %s != HTTP mix key %s", viaLocal.Key, viaHTTP.Key)
	}
	if viaLocal.WeightedSpeedup != viaHTTP.WeightedSpeedup {
		t.Fatalf("weighted speedup diverged: %v vs %v",
			viaLocal.WeightedSpeedup, viaHTTP.WeightedSpeedup)
	}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	if key != viaLocal.Key {
		t.Fatalf("declarative key %s != executed key %s", key, viaLocal.Key)
	}
}
