package lightnuca

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/orchestrator"
	"repro/internal/trace"
)

// Local is the in-process Runner: it normalizes a Request, consults the
// content-addressed result cache, and simulates on a miss. The zero
// value is ready to use (memory-only cache); CacheDir points it at the
// same on-disk store lnucad and lnucasweep share, so a Local runner, the
// CLIs and the service never recompute each other's runs.
//
// CMP mix requests resolve their weighted-speedup baselines through the
// same engine — one single-core run per distinct benchmark in the mix,
// memoized under its own key.
//
// Local is safe for concurrent use once configured (concurrent work on
// one content key, top-level or baseline, coalesces onto a single
// simulation); the configuration fields must not be changed after the
// first Run.
type Local struct {
	// CacheDir optionally backs the runner with a directory of
	// <key>.json results (empty = in-memory only).
	CacheDir string
	// TraceDir optionally backs the runner's trace store with a
	// directory of <id>.lntrace files — point it at lnucad's -traces
	// directory and a trace uploaded to the service replays locally too
	// (empty = in-memory only).
	TraceDir string
	// OnProgress, when set, receives (committed, total) instruction
	// counts as runs advance.
	OnProgress func(done, total uint64)

	once   sync.Once
	cache  *orchestrator.Cache
	traces *TraceStore
	engine *orchestrator.Engine
}

func (l *Local) init() {
	l.once.Do(func() {
		l.cache = orchestrator.NewCache(0, l.CacheDir)
		l.traces = trace.NewStore(l.TraceDir)
		l.engine = orchestrator.NewEngine(l.cache, l.traces)
	})
}

// ImportTrace adds a recorded trace to the runner's store and returns
// its content hash — the value a Request.Trace replay names.
func (l *Local) ImportTrace(tr *Trace) (string, error) {
	l.init()
	hdr, err := l.traces.Put(tr)
	if err != nil {
		return "", err
	}
	return hdr.ID, nil
}

// Traces exposes the runner's trace store.
func (l *Local) Traces() *TraceStore {
	l.init()
	return l.traces
}

// Run implements Runner: normalize, then get-or-simulate through the
// engine. Concurrent Runs of the same content key — and a mix's
// baseline of that key — coalesce: one simulates, the rest wait and
// read its published result. The context is polled between simulation
// chunks, so cancellation lands mid-run.
func (l *Local) Run(ctx context.Context, req Request) (Result, error) {
	l.init()
	job, err := req.Job()
	if err != nil {
		return Result{}, err
	}
	res, cached, err := l.engine.Do(ctx, job, l.OnProgress)
	if err != nil {
		return Result{}, err
	}
	// res is, or shares its statistics with, a live cache entry that every
	// later hit on the key is served: the caller gets deep copies, so
	// mutating its Result cannot corrupt what the cache serves next. (Its
	// Phases are this execution's alone; an entry has none.)
	out := resultFrom(job.Key(), res, cached)
	out.PerCore = append([]CoreResult(nil), out.PerCore...)
	out.Stats = out.Stats.Clone()
	return out, nil
}

// CacheStats reports the runner's result-cache hit/miss counters.
func (l *Local) CacheStats() (hits, misses uint64) {
	l.init()
	return l.cache.Hits(), l.cache.Misses()
}

// CacheSummary renders CacheStats as the line the CLIs end a run with.
func (l *Local) CacheSummary() string {
	hits, misses := l.CacheStats()
	where := "in memory"
	if l.CacheDir != "" {
		where = l.CacheDir
	}
	return fmt.Sprintf("result cache: %d hits, %d misses (%s)", hits, misses, where)
}
