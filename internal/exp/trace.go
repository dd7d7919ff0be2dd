package exp

// Trace-driven experiments: RecordOneCtx captures the dynamic op stream
// of an otherwise-ordinary RunOneCtx measurement, and ReplayOneCtx
// re-runs a recorded stream against any single-core hierarchy. Recording
// is a transparent wrapper (the live result is bit-identical to an
// unrecorded run), and replaying on the recording hierarchy reproduces
// the live run's statistics exactly — the determinism contract the
// trace-subsystem tests pin for all four Fig. 1 organizations.

import (
	"context"
	"fmt"

	"repro/internal/trace"
	"repro/internal/workload"
)

// RecordOneCtx runs one measurement exactly like RunOneCtx while
// capturing the op stream the core consumed into a replayable trace.
// After the live run it drains trace.ReplaySlack extra ops from the
// generator, so the trace also replays to completion on hierarchies
// whose cores run further ahead than the recording one did. On error the
// trace is nil.
func RecordOneCtx(ctx context.Context, spec Spec, prof workload.Profile, mode Mode, seed uint64, progress func(done, total uint64)) (Result, *trace.Trace) {
	gen, err := workload.NewGenerator(prof, seed)
	if err != nil {
		return Result{Spec: spec, Bench: prof, Err: err}, nil
	}
	rec := trace.NewRecorder(gen)
	res, _ := runOne(ctx, spec, prof, mode, seed, rec, progress)
	if res.Err != nil {
		return res, nil
	}
	rec.Reserve(trace.ReplaySlack)
	return res, rec.Trace(trace.Meta{
		Benchmark: prof.Name,
		Seed:      seed,
		Warmup:    mode.Warmup,
		Measure:   mode.Measure,
	})
}

// ReplayOneCtx re-runs a recorded trace against the given hierarchy
// spec. The trace pins everything else: the benchmark provenance (which
// reproduces the recording run's functional prewarm), the seed, and the
// warmup/measure windows. Replaying on the hierarchy that recorded the
// trace yields statistics bit-identical to the live run.
func ReplayOneCtx(ctx context.Context, spec Spec, tr *trace.Trace, progress func(done, total uint64)) Result {
	hdr := tr.Header
	mode := Mode{Name: "trace", Warmup: hdr.Warmup, Measure: hdr.Measure}
	prof, ok := workload.ByName(hdr.Benchmark)
	if !ok {
		return Result{Spec: spec, Err: fmt.Errorf("exp: trace %s records unknown benchmark %q", hdr.ID, hdr.Benchmark)}
	}
	res, sys := runOne(ctx, spec, prof, mode, hdr.Seed, trace.NewReplayer(tr), progress)
	if res.Err != nil {
		return res
	}
	if total := mode.Warmup + mode.Measure; sys.Core.Committed < total {
		res.Err = fmt.Errorf("exp: trace %s exhausted after %d of %d instructions on %s — the trace is truncated or was not recorded with replay slack",
			hdr.ID, sys.Core.Committed, total, spec.Label())
	}
	return res
}
