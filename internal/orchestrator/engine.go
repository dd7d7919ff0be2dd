package orchestrator

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/obs/tracez"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunFunc executes one normalized job. The orchestrator cancels ctx to
// abort the run; progress receives (committed, total) instruction counts.
type RunFunc func(ctx context.Context, j Job, progress func(done, total uint64)) (*JobResult, error)

// Engine is the one in-process way to execute a job: Run simulates, Do
// is get-or-simulate by content key. lightnuca.Local calls Do for every
// request; the orchestrator's pool and fleet workers default their
// RunFunc to Run (the pool does its own cache lookup, coalescing and
// Put around it); a mix resolves its weighted-speedup baselines through
// Do, so a baseline and a top-level Do of the same key share one
// simulation.
//
// Known limit: the pool coalesces on Orchestrator.byKey, not on the
// engine, and routing baselines through the job queue would deadlock a
// fully occupied pool — so a pool job and another job's baseline of the
// same key can still both simulate. The race costs at most one duplicate
// run and both sides publish identical results.
type Engine struct {
	cache  *Cache
	traces *trace.Store // nil: trace jobs fail with a configuration error

	mu       sync.Mutex
	inflight map[string]chan struct{} // per-key singleflight; closed when the run ends
}

// NewEngine returns an engine over a result cache and a trace store.
func NewEngine(cache *Cache, traces *trace.Store) *Engine {
	return &Engine{cache: cache, traces: traces, inflight: make(map[string]chan struct{})}
}

// SimRunWithTraces returns the production RunFunc: Engine.Run over
// cache and traces.
func SimRunWithTraces(cache *Cache, traces *trace.Store) RunFunc {
	return NewEngine(cache, traces).Run
}

// Do returns the job's result and whether it was served without
// simulating here: a cache hit, or a concurrent Do of the same key that
// this call waited for. Otherwise this call runs the job and publishes
// the result before releasing the key. A failed run publishes nothing,
// so its waiters retry.
func (e *Engine) Do(ctx context.Context, j Job, progress func(done, total uint64)) (*JobResult, bool, error) {
	key := j.Key()
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if res, ok := e.cache.Get(key); ok {
			return res, true, nil
		}
		e.mu.Lock()
		if done, busy := e.inflight[key]; busy {
			e.mu.Unlock()
			// Another Do is simulating this content; wait for it to
			// publish (or fail), then reconsult the cache.
			select {
			case <-done:
				continue
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		done := make(chan struct{})
		e.inflight[key] = done
		e.mu.Unlock()

		res, err := e.Run(ctx, j, progress)
		if err == nil {
			e.cache.PutCtx(ctx, key, res)
		}
		e.mu.Lock()
		delete(e.inflight, key)
		e.mu.Unlock()
		close(done)
		return res, false, err
	}
}

// Run simulates one normalized job: a trace job replays its recorded
// stream from the store, a single-core job drives the exp harness, a mix
// job runs the CMP and then its baselines (see runMix).
func (e *Engine) Run(ctx context.Context, j Job, progress func(done, total uint64)) (*JobResult, error) {
	if j.IsMix() {
		return e.runMix(ctx, j, progress)
	}
	var r exp.Result
	if j.Trace != "" {
		if e.traces == nil {
			return nil, fmt.Errorf("orchestrator: no trace store configured for trace run %s", j.Trace)
		}
		tr, err := e.traces.Get(j.Trace)
		if err != nil {
			return nil, err
		}
		r = exp.ReplayOneCtx(ctx, j.Spec(), tr, progress)
	} else {
		prof, ok := workload.ByName(j.Benchmark)
		if !ok {
			return nil, fmt.Errorf("orchestrator: unknown benchmark %q", j.Benchmark)
		}
		r = exp.RunOneCtx(ctx, j.Spec(), prof, j.Mode, j.Seed, progress)
	}
	if r.Err != nil {
		return nil, r.Err
	}
	res := ResultOf(r)
	emitPhaseSpans(ctx, res.Phases)
	return res, nil
}

// runMix runs the CMP and then resolves its weighted-speedup baselines
// — one single-core run per distinct benchmark in the mix, under the
// same hierarchy, mode and seed — through Do, each memoized under its
// own key. Progress budgets one single-core window per core plus one
// per distinct baseline, so a mix job keeps reporting honest progress
// while its baselines run.
func (e *Engine) runMix(ctx context.Context, j Job, progress func(done, total uint64)) (*JobResult, error) {
	// Distinct baselines, in mix order.
	var distinct []string
	seen := map[string]bool{}
	for _, b := range j.MixBenchmarks {
		if !seen[b] {
			seen[b] = true
			distinct = append(distinct, b)
		}
	}
	budget := j.Mode.Warmup + j.Mode.Measure
	mixUnits := uint64(j.Cores) * budget
	totalUnits := mixUnits + uint64(len(distinct))*budget
	stage := func(offset uint64) func(done, total uint64) {
		if progress == nil {
			return nil
		}
		return func(done, _ uint64) { progress(offset+done, totalUnits) }
	}

	r := exp.RunMixCtx(ctx, j.MixSpec(), j.Mode, j.Seed, stage(0))
	if r.Err != nil {
		return nil, r.Err
	}
	baselines := make(map[string]float64, len(distinct))
	for i, bench := range distinct {
		single, err := Job{
			Kind: j.Kind, Levels: j.Levels, Benchmark: bench,
			Mode: j.Mode, Seed: j.Seed,
		}.Normalize()
		if err != nil {
			return nil, err
		}
		base, _, err := e.Do(ctx, single, stage(mixUnits+uint64(i)*budget))
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", bench, err)
		}
		baselines[bench] = base.IPC
	}
	if progress != nil {
		progress(totalUnits, totalUnits)
	}
	ws, err := exp.WeightedSpeedup(r.PerCore, baselines)
	if err != nil {
		return nil, err
	}
	res := MixResultOf(r, ws)
	emitPhaseSpans(ctx, res.Phases)
	return res, nil
}

// emitPhaseSpans reconstructs the run's build/warmup/measure phases as
// spans ending now, from the durations the exp harness measured. The
// tracer is consulted strictly AFTER the run — the kernel hot loop
// never sees a span — and the reconstructed spans are children of
// whatever span ctx carries (the local run span, or a fleet worker's
// execute span).
func emitPhaseSpans(ctx context.Context, ph *exp.Phases) {
	if ph == nil || tracez.TracerFrom(ctx) == nil {
		return
	}
	//lnuca:allow(determinism) span timestamps reconstructed from measured phase durations; telemetry only, never in result content or keys
	end := time.Now()
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	mStart := end.Add(-secs(ph.MeasureSeconds))
	wStart := mStart.Add(-secs(ph.WarmupSeconds))
	bStart := wStart.Add(-secs(ph.BuildSeconds))
	b, _ := tracez.StartSpanAt(ctx, "lnuca.run.build", bStart)
	b.FinishAt(wStart)
	w, _ := tracez.StartSpanAt(ctx, "lnuca.run.warmup", wStart)
	w.FinishAt(mStart)
	m, _ := tracez.StartSpanAt(ctx, "lnuca.run.measure", mStart)
	m.FinishAt(end)
}
