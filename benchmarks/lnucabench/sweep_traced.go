package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	lightnuca "repro"
	"repro/internal/atomicfile"
	"repro/internal/fleet"
	"repro/internal/orchestrator"
	"repro/internal/stats"
)

// interval is a start and an end.
type interval struct{ from, to time.Time }

func (iv interval) seconds() float64 { return iv.to.Sub(iv.from).Seconds() }

// sweepTracer collects what the harness can see of a sweep from the
// outside: when each job's dispatch and each worker's run began and
// ended (it wraps the two RunFuncs), and how long each lease-protocol
// round trip took (it wraps the workers' HTTP transport).
type sweepTracer struct {
	mu       sync.Mutex
	dispatch map[string]interval // by job key
	run      map[string]interval
	rtt      map[string][]time.Duration // by lease-protocol path
}

func newSweepTracer() *sweepTracer {
	return &sweepTracer{
		dispatch: make(map[string]interval),
		run:      make(map[string]interval),
		rtt:      make(map[string][]time.Duration),
	}
}

// timed wraps a RunFunc, recording each job's interval into into.
func (t *sweepTracer) timed(into map[string]interval, run orchestrator.RunFunc) orchestrator.RunFunc {
	return func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
		start := time.Now()
		res, err := run(ctx, j, progress)
		end := time.Now()
		t.mu.Lock()
		into[j.Key()] = interval{start, end}
		t.mu.Unlock()
		return res, err
	}
}

// RoundTrip times one worker request. A lease poll that found no work
// (204) is idle polling, not a lease, and is left out.
func (t *sweepTracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		start := time.Now()
		resp, err := next.RoundTrip(req)
		if err == nil && resp.StatusCode == http.StatusOK {
			t.mu.Lock()
			t.rtt[req.URL.Path] = append(t.rtt[req.URL.Path], time.Since(start))
			t.mu.Unlock()
		}
		return resp, err
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// spansOf lays a finished sweep out as spans: the client's sweep, under
// it one span per point from submission to terminal record, and under
// each point its queue wait, its fleet dispatch (with the wait for a
// free worker, the worker's run and the run's build, warmup and measure
// phases inside) and the store write that followed.
func (t *sweepTracer) spansOf(e *env, parent int, rep coldRep) {
	root := e.spans.add(parent, "client.sweep", rep.sweepFrom, rep.sweepFrom.Add(rep.wall))
	for _, job := range rep.status.Jobs {
		tl := job.Timeline
		if tl.StartedAt == nil || tl.FinishedAt == nil {
			continue
		}
		point := e.spans.add(root, "orchestrator.point", tl.SubmittedAt, *tl.FinishedAt)
		e.spans.add(point, "orchestrator.queue", tl.SubmittedAt, *tl.StartedAt)
		d, ok := t.dispatch[job.Key]
		if !ok {
			continue
		}
		dispatch := e.spans.add(point, "fleet.dispatch", d.from, d.to)
		e.spans.add(point, "cache.put", d.to, *tl.FinishedAt)
		// StartedAt is the lease grant: until then the job sat in the
		// coordinator's queue waiting for a free worker.
		if tl.StartedAt.After(d.from) {
			e.spans.add(dispatch, "fleet.pending", d.from, *tl.StartedAt)
		}
		r, ok := t.run[job.Key]
		if !ok {
			continue
		}
		run := e.spans.add(dispatch, "worker.run", r.from, r.to)
		if job.Result.Valid() && job.Result.Phases != nil {
			ph := job.Result.Phases
			// The phases end where the run ends, back to back.
			secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
			mFrom := r.to.Add(-secs(ph.MeasureSeconds))
			wFrom := mFrom.Add(-secs(ph.WarmupSeconds))
			e.spans.add(run, "exp.build", wFrom.Add(-secs(ph.BuildSeconds)), wFrom)
			e.spans.add(run, "exp.warmup", wFrom, mFrom)
			e.spans.add(run, "exp.measure", mFrom, r.to)
		}
	}
}

// liveStackMicro measures, on the stack of a sweep that just finished,
// the two things that need one: the finished sweep's status document
// rendered straight from the handler (what every poll of a done sweep
// costs and weighs), and a heartbeat's round trip over the wire — for a
// lease nobody holds (410), since 35ms jobs end before their first one.
func liveStackMicro(e *env, m map[string]float64, st *stack, out *coldRep) ([]time.Duration, error) {
	var size int
	statusMS, err := timeEach(e.sz.microN/4+1, func(int) error {
		rec := httptest.NewRecorder()
		st.api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+out.status.ID, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("sweep status: HTTP %d", rec.Code)
		}
		size = rec.Body.Len()
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["orchestrator.response_bytes_per_point"] = float64(size) / float64(len(out.status.Jobs))
	body, err := json.Marshal(fleet.HeartbeatRequest{LeaseID: "none"})
	if err != nil {
		return nil, err
	}
	beats, err := timeEach(e.sz.microN, func(int) error {
		resp, err := http.Post(st.url+fleet.PathHeartbeat, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	})
	m["fleet.heartbeat_rtt_us"] = medianUS(beats)
	return statusMS, err
}

// stubRun answers a job at once with a structurally valid result: what
// is left of a sweep's wall is the service.
func stubRun(orchestrator.RunFunc) orchestrator.RunFunc {
	return func(_ context.Context, j orchestrator.Job, _ func(done, total uint64)) (*orchestrator.JobResult, error) {
		return &orchestrator.JobResult{Config: j.Spec().Label(), Benchmark: j.Benchmark, IPC: 1, Cycles: 1000}, nil
	}
}

// runSweepColdTraced produces sweep_cold's per-layer numbers: the
// reference store (timed: the same matrix with no service in the way),
// one untraced and one traced repetition, then the direct-call
// micro-sections of the layers a cold sweep exercises.
func runSweepColdTraced(e *env) (*report, error) {
	rep := newReport("sweep_cold")
	m := rep.metrics
	root := e.spans.open(0, "sweep_cold", time.Now())
	defer func() { e.spans.close(root, time.Now()) }()
	reqs := sweepRequests(e)
	points := float64(len(reqs))

	refDir, err := e.tempDir()
	if err != nil {
		return nil, err
	}
	localStart := time.Now()
	ref, err := populate(e, refDir, reqs)
	localWall := time.Since(localStart)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	e.spans.add(root, "lightnuca.local_sweep", localStart, localStart.Add(localWall))
	m["lightnuca.local_sweep_points_per_s"] = ratio(points, localWall.Seconds())
	if rep.statsSHA256, err = resultsDigest(ref); err != nil {
		return nil, err
	}

	// Untraced and traced repetitions alternate, so the overhead is a
	// ratio of medians and not of two single sweeps; the spans and the
	// per-layer numbers are the last traced repetition's.
	pairs := e.sz.tracedPairs
	var plainS, tracedS []float64
	var plain, traced coldRep
	var tr *sweepTracer
	var statusMS []time.Duration
	var microErr error
	allocBefore := totalAllocMB()
	for i := 0; i < pairs; i++ {
		plain = runColdRep(e, rep, refDir, stackOptions{}, nil)
		if i == 0 {
			m["lightnuca.alloc_mb_per_point"] = (totalAllocMB() - allocBefore) / points
		}
		plainS = append(plainS, plain.wall.Seconds())
		e.spans.add(root, "pass.untraced", plain.sweepFrom, plain.sweepFrom.Add(plain.wall))

		tr = newSweepTracer()
		var then func(*stack, *coldRep)
		if i == pairs-1 {
			then = func(st *stack, out *coldRep) { statusMS, microErr = liveStackMicro(e, m, st, out) }
		}
		t := tr // each closure below keeps the tracer of its own repetition
		traced = runColdRep(e, rep, refDir, stackOptions{
			wrapDispatch:  func(run orchestrator.RunFunc) orchestrator.RunFunc { return t.timed(t.dispatch, run) },
			workerRun:     func(run orchestrator.RunFunc) orchestrator.RunFunc { return t.timed(t.run, run) },
			workerRoundTr: t.roundTripper,
		}, then)
		tracedS = append(tracedS, traced.wall.Seconds())
	}
	if microErr != nil {
		return nil, microErr
	}
	m["orchestrator.http_sweep_status_ms"] = medianUS(statusMS) / 1e3
	tr.spansOf(e, root, traced)

	m["benchmarks.trace_overhead_pct"] = 100 * (ratio(median(tracedS), median(plainS)) - 1)
	m["fleet.leases_granted"] = traced.leases
	m["cpu.committed"] = float64(traced.instr)
	m["exp.pass_median_mips"] = ratio(float64(plain.instr)/1e6, median(plainS))
	var queueMS, runMS []float64
	var build, warmup, measure, busy float64
	for _, job := range traced.status.Jobs {
		queueMS = append(queueMS, job.Timeline.QueueSeconds*1e3)
		runMS = append(runMS, job.Timeline.RunSeconds*1e3)
		if job.Result.Valid() && job.Result.Phases != nil {
			ph := job.Result.Phases
			build += ph.BuildSeconds
			warmup += ph.WarmupSeconds
			measure += ph.MeasureSeconds
		}
		busy += tr.run[job.Key].seconds()
	}
	m["orchestrator.queue_wait_p50_ms"] = median(queueMS)
	m["orchestrator.job_run_p50_ms"] = median(runMS)
	m["exp.build_share"] = ratio(build, busy)
	m["exp.warmup_share"] = ratio(warmup, busy)
	m["exp.measure_share"] = ratio(measure, busy)
	m["fleet.worker_busy_share"] = ratio(busy, fleetWorkers*traced.wall.Seconds())
	m["fleet.lease_rtt_us"] = medianUS(tr.rtt[fleet.PathLease])
	m["fleet.complete_rtt_us"] = medianUS(tr.rtt[fleet.PathComplete])
	// Dispatch overhead is the dispatch span's self time: what is left
	// of a job's trip through the fleet once the wait for a free worker
	// and the worker's run are taken out.
	spans := e.spans.snapshot()
	self := selfTimes(spans)
	var overheadMS []float64
	for _, s := range spans {
		if s.Name == "fleet.dispatch" {
			overheadMS = append(overheadMS, float64(self[s.ID])/1e6)
		}
	}
	m["fleet.dispatch_overhead_p50_ms"] = median(overheadMS)

	// The same sweep with the simulation stubbed out, and with one worker.
	for _, v := range []struct {
		metric string
		opt    stackOptions
	}{
		{"fleet.stub_points_per_s", stackOptions{workers: fleetWorkers, workerRun: stubRun}},
		{"fleet.points_per_s_1w", stackOptions{workers: 1}},
	} {
		rep.attempted += len(reqs)
		r, err := sweepOnce(e, v.opt, nil)
		if err != nil {
			return nil, err
		}
		if done := r.status.ByState[lightnuca.StatusDone]; done != len(reqs) {
			rep.fail(len(reqs)-done, "%s: %d of %d points done", v.metric, done, len(reqs))
		}
		e.spans.add(root, v.metric, r.sweepFrom, r.sweepFrom.Add(r.wall))
		m[v.metric] = ratio(points, r.wall.Seconds())
	}

	if len(traced.status.Jobs) == 0 || !traced.status.Jobs[0].Result.Valid() {
		return nil, fmt.Errorf("traced sweep returned no result to size the store writes with")
	}
	if err := storeMicro(e, m, root, traced.status.Jobs[0].Result); err != nil {
		return nil, err
	}
	if err := statsMicro(e, m, ref[0].Stats); err != nil {
		return nil, err
	}
	m["lightnuca.peak_rss_mb"] = peakRSSMB()
	return rep, nil
}

// storeMicro times the durable writes a cold point pays: the atomic
// file write, the cache's disk put on top of it, and what the queue
// journal adds to a submit.
func storeMicro(e *env, m map[string]float64, parent int, res *orchestrator.JobResult) error {
	start := time.Now()
	defer func() { e.spans.add(parent, "orchestrator.store_micro", start, time.Now()) }()
	payload, err := json.Marshal(res)
	if err != nil {
		return err
	}
	dir, err := e.tempDir()
	if err != nil {
		return err
	}
	writes, err := timeEach(e.sz.microN, func(i int) error {
		return atomicfile.Write(filepath.Join(dir, fmt.Sprintf("w%04d.json", i)), payload, atomicfile.Options{})
	})
	if err != nil {
		return err
	}
	m["atomicfile.write_us"] = medianUS(writes)

	cache := orchestrator.NewCache(0, dir)
	puts, _ := timeEach(e.sz.microN, func(i int) error {
		cache.Put(fmt.Sprintf("%064x", i), res)
		return nil
	})
	m["orchestrator.cache_put_disk_us"] = medianUS(puts)

	// Submit distinct jobs to an orchestrator whose Run is a stub, with
	// and without a journal; the difference is the journal's append.
	var medians [2]float64
	for i, journaled := range []bool{false, true} {
		cfg := orchestrator.Config{Run: stubRun(nil)}
		if journaled {
			jdir, err := e.tempDir()
			if err != nil {
				return err
			}
			if cfg.Journal, err = orchestrator.OpenJournal(filepath.Join(jdir, "journal.jsonl")); err != nil {
				return err
			}
		}
		orch := orchestrator.New(cfg)
		submits, err := timeEach(e.sz.microN, func(n int) error {
			req := sweepRequests(e)[0]
			req.Seed = uint64(1000 + n)
			job, err := req.Job()
			if err != nil {
				return err
			}
			_, err = orch.Submit(job)
			return err
		})
		orch.Close()
		if cfg.Journal != nil {
			_ = cfg.Journal.Close() // the orchestrator is closed; nothing appends
		}
		if err != nil {
			return err
		}
		medians[i] = medianUS(submits)
	}
	m["orchestrator.journal_submit_delta_us"] = medians[1] - medians[0]
	return nil
}

// runSweepWarmTraced produces sweep_warm's per-layer numbers: a short
// untraced and a short traced loop of warm submits (a span per
// request), then direct calls into each layer a warm submit crosses.
func runSweepWarmTraced(e *env) (*report, error) {
	rep := newReport("sweep_warm")
	m := rep.metrics
	root := e.spans.open(0, "sweep_warm", time.Now())
	defer func() { e.spans.close(root, time.Now()) }()

	setupStart := time.Now()
	ws, err := newWarmStore(e, sweepRequests(e), stackOptions{workers: fleetWorkers})
	if err != nil {
		return nil, err
	}
	defer ws.close()
	e.spans.add(root, "setup", setupStart, time.Now())
	if rep.statsSHA256, err = resultsDigest(ws.want); err != nil {
		return nil, err
	}

	const batches = 8
	n := batches * e.sz.warmBatch
	allocBefore := totalAllocMB()
	plainStart := time.Now()
	plain := ws.batch(e, rep, n, ws.submit)
	e.spans.add(root, "pass.untraced", plainStart, plainStart.Add(plain))
	m["lightnuca.alloc_mb_per_point"] = (totalAllocMB() - allocBefore) / float64(n)

	tracedStart := time.Now()
	pass := e.spans.open(root, "pass.traced", tracedStart)
	for i := 0; i < n; i++ {
		start, took := ws.one(e, rep, ws.submit)
		e.spans.add(pass, "client.run", start, start.Add(took))
	}
	traced := time.Since(tracedStart)
	e.spans.close(pass, tracedStart.Add(traced))
	m["benchmarks.trace_overhead_pct"] = 100 * (ratio(traced.Seconds(), plain.Seconds()) - 1)
	m["lightnuca.client_run_warm_p99_ms"] = percentile(ws.samplesMS, 99)
	rep.note("client_run_warm_p99_ms over %d samples", len(ws.samplesMS))

	if err := warmMicro(e, rep, root, ws); err != nil {
		return nil, err
	}
	if err := obsMicro(e, rep, root, ws); err != nil {
		return nil, err
	}
	if err := statsMicro(e, m, ws.want[0].Stats); err != nil {
		return nil, err
	}
	deltas, _ := timeEach(e.sz.microN, func(int) error {
		stats.Delta(ws.want[0].Stats, ws.want[0].Stats)
		return nil
	})
	m["stats.delta_us"] = medianUS(deltas)
	m["lightnuca.peak_rss_mb"] = peakRSSMB()
	return rep, nil
}

// warmMicro times, one direct call at a time, each layer a warm submit
// crosses: request to content key, the cache in memory and on disk,
// the orchestrator's submit, the HTTP handler, the in-process runner,
// and a whole cached sweep through the client.
func warmMicro(e *env, rep *report, parent int, ws *warmStore) error {
	start := time.Now()
	defer func() { e.spans.add(parent, "orchestrator.warm_micro", start, time.Now()) }()
	m := rep.metrics
	req := ws.reqs[0]
	job, err := req.Job()
	if err != nil {
		return err
	}
	key := job.Key()
	n := e.sz.microN

	keys, err := timeEach(n, func(int) error {
		_, err := req.Key()
		return err
	})
	if err != nil {
		return err
	}
	m["orchestrator.request_key_us"] = medianUS(keys)

	miss := func(what string) error { return fmt.Errorf("%s missed a stored point", what) }
	cache := ws.stack.orch.Cache()
	mem, err := timeEach(n, func(int) error {
		if _, ok := cache.Get(key); !ok {
			return miss("memory cache")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["orchestrator.cache_get_mem_us"] = medianUS(mem)

	var disk []time.Duration
	for i := 0; i < n; i++ {
		cold := orchestrator.NewCache(0, ws.stack.dir) // nothing in memory: Get reads the file
		start := time.Now()
		_, ok := cold.Get(key)
		disk = append(disk, time.Since(start))
		if !ok {
			return miss("disk cache")
		}
	}
	m["orchestrator.cache_get_disk_us"] = medianUS(disk)

	submits, err := timeEach(n, func(int) error {
		rec, err := ws.stack.orch.Submit(job)
		if err == nil && !rec.Cached {
			err = miss("orchestrator submit")
		}
		return err
	})
	if err != nil {
		return err
	}
	m["orchestrator.submit_warm_us"] = medianUS(submits)

	var posts []time.Duration
	for i := 0; i < n; i++ {
		_, took, err := ws.serve(e, 0)
		if err != nil {
			return err
		}
		posts = append(posts, took)
	}
	m["orchestrator.http_submit_warm_us"] = medianUS(posts)

	local := &lightnuca.Local{CacheDir: ws.stack.dir}
	locals, err := timeEach(n, func(int) error {
		res, err := local.Run(e.ctx, req)
		if err == nil && !res.Cached {
			err = miss("lightnuca.Local")
		}
		return err
	})
	if err != nil {
		return err
	}
	m["lightnuca.local_run_warm_us"] = medianUS(locals)

	sweeps, err := timeEach(5, func(int) error {
		rep.attempted += len(ws.reqs)
		st, err := ws.stack.client.RunSweep(e.ctx, sweepOf(e), nil)
		if err != nil {
			return err
		}
		for i, job := range st.Jobs {
			if !job.Cached {
				rep.fail(1, "point %d of a warm sweep was simulated", i)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["lightnuca.client_sweep_warm_ms"] = medianUS(sweeps) / 1e3
	return nil
}

// obsMicro prices the instruments: warm submits against two stacks
// over the same store, one with the tracer and flight recorder lnucad
// always runs, one without, in alternating batches; and one Prometheus
// rendering of the registry.
func obsMicro(e *env, rep *report, parent int, ws *warmStore) error {
	start := time.Now()
	defer func() { e.spans.add(parent, "obs.micro", start, time.Now()) }()
	m := rep.metrics
	var spanCount int
	var mu sync.Mutex
	var sides [2]*warmStore
	for i, opt := range []stackOptions{
		{dir: ws.stack.dir, countSpan: func() { mu.Lock(); spanCount++; mu.Unlock() }},
		{dir: ws.stack.dir, noTracing: true},
	} {
		st, err := newStack(opt)
		if err != nil {
			return err
		}
		sides[i] = &warmStore{stack: st, reqs: ws.reqs, want: ws.want}
		defer st.close()
	}
	var walls [2][]float64
	requests := 0
	for round := 0; round < 6; round++ {
		for i, side := range sides {
			walls[i] = append(walls[i], side.batch(e, rep, e.sz.warmBatch, side.submit).Seconds())
		}
		requests += e.sz.warmBatch
	}
	m["obs.tracing_overhead_pct"] = 100 * (ratio(median(walls[0]), median(walls[1])) - 1)
	mu.Lock()
	m["obs.spans_per_point"] = ratio(float64(spanCount), float64(requests))
	mu.Unlock()

	scrapes, err := timeEach(e.sz.microN/4+1, func(int) error {
		return ws.stack.registry.WritePrometheus(io.Discard)
	})
	m["obs.scrape_ms"] = medianUS(scrapes) / 1e3
	return err
}
