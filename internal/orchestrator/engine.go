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

// Engine is the one get-or-simulate in the tree. Do is a cache lookup,
// then flight: the per-key step that executes a job and publishes its
// result before releasing the key. lightnuca.Local, a fleet worker's
// default RunFunc and a mix's baselines call Do; the orchestrator's pool
// enters flight directly, Submit having made (and counted) the lookup.
// One map of keys in flight: a process simulates a key once at a time.
type Engine struct {
	cache  *Cache
	traces *trace.Store // nil: trace jobs fail with a configuration error
	exec   RunFunc      // what a flight executes: Run, or the orchestrator's Config.Run

	mu       sync.Mutex
	inflight map[string]chan struct{} // per-key singleflight; closed when the run ends
}

// NewEngine returns an engine over a result cache and a trace store.
func NewEngine(cache *Cache, traces *trace.Store) *Engine {
	e := &Engine{cache: cache, traces: traces, inflight: make(map[string]chan struct{})}
	e.exec = e.Run
	return e
}

// SimRunWithTraces returns the bare simulating RunFunc, Engine.Run over
// cache and traces, with no lookup or publishing around it.
func SimRunWithTraces(cache *Cache, traces *trace.Store) RunFunc {
	return NewEngine(cache, traces).Run
}

// Do returns the job's result and whether it was served without
// simulating here: a cache hit, or a concurrent flight of the same key
// that this call waited for.
func (e *Engine) Do(ctx context.Context, j Job, progress func(done, total uint64)) (*JobResult, bool, error) {
	key := j.Key()
	if res, ok := e.cache.Get(key); ok {
		return res, true, nil
	}
	return e.flight(ctx, key, j, progress)
}

// flight is what follows a cache miss. The first caller for a key
// executes the job and publishes the result before it releases the key;
// callers that arrive meanwhile wait for the release and read the cache.
// A failed run publishes nothing, so its waiters take the key in turn.
func (e *Engine) flight(ctx context.Context, key string, j Job, progress func(done, total uint64)) (*JobResult, bool, error) {
	for ctx.Err() == nil {
		e.mu.Lock()
		held, busy := e.inflight[key]
		if !busy {
			held = make(chan struct{})
			e.inflight[key] = held
		}
		e.mu.Unlock()
		if !busy {
			res, err := e.exec(ctx, j, progress)
			if err == nil {
				e.cache.PutCtx(ctx, key, res) // ctx attributes an injected persist fault to the job's trace
			}
			e.mu.Lock()
			delete(e.inflight, key)
			e.mu.Unlock()
			close(held)
			return res, false, err
		}
		select {
		case <-held:
			if res, ok := e.cache.Get(key); ok {
				return res, true, nil
			}
		case <-ctx.Done():
		}
	}
	return nil, false, ctx.Err()
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
// same hierarchy, machine, mode and seed — through Do, each memoized under its
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
			Kind: j.Kind, Levels: j.Levels, machine: j.machine, Benchmark: bench,
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
