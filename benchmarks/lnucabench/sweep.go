package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	lightnuca "repro"
	"repro/internal/stats"
)

// sweepBenchmarks extends the kernel subset to eight (4 INT, 4 FP).
var sweepBenchmarks = append(append([]string(nil), kernelBenchmarks...),
	"400.perlbench", "401.bzip2", "433.milc", "470.lbm")

// sweepOf declares the 32-point matrix both sweep workloads use:
// conventional (one spec) and ln+l3 at 2, 3 and 4 levels, times eight
// benchmarks, at the quick window — cheap points, so the dispatch path
// is a visible share of the wall.
func sweepOf(e *env) lightnuca.Sweep {
	return lightnuca.Sweep{
		Hierarchies: []string{"conventional", "ln+l3"},
		Levels:      []int{2, 3, 4},
		Benchmarks:  sweepBenchmarks,
		Warmup:      e.sz.sweep.Warmup,
		Measure:     e.sz.sweep.Measure,
		Seed:        e.seed,
	}
}

// sweepRequests expands the matrix into its per-point requests.
func sweepRequests(e *env) []lightnuca.Request {
	reqs, err := sweepOf(e).Expand()
	if err != nil {
		panic(err) // the matrix is a constant of the harness
	}
	return reqs
}

// pointInstr is one point's window in committed instructions, given the
// point's statistics.
func pointInstr(e *env, set *stats.Set) uint64 {
	return e.sz.sweep.Warmup + set.Counter("core.committed")
}

// populate runs reqs through an in-process lightnuca.Local backed by a
// disk store in dir, two at a time, and returns the results in request
// order. It is the reference a fleet-executed sweep is compared with,
// and how the warm workloads fill their store.
func populate(e *env, dir string, reqs []lightnuca.Request) ([]lightnuca.Result, error) {
	local := &lightnuca.Local{CacheDir: dir}
	return lightnuca.RunAll(e.ctx, local, reqs, fleetWorkers)
}

// warmStore is a service stack over a store that already holds every
// request's result: each submit is answered from the cache, no cycle
// is simulated.
type warmStore struct {
	stack     *stack
	reqs      []lightnuca.Request
	want      []lightnuca.Result
	populated time.Duration // wall of simulating reqs into the store
	next      int
	samplesMS []float64
}

// newWarmStore populates a fresh store with reqs, starts a stack built
// from opt over it, and fetches every request once through the client
// (the store's first read comes from disk) checking the full statistics
// of each reply against the populated result.
func newWarmStore(e *env, reqs []lightnuca.Request, opt stackOptions) (*warmStore, error) {
	dir, err := e.tempDir()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	want, err := populate(e, dir, reqs)
	populated := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("populate store: %w", err)
	}
	opt.dir = dir
	st, err := newStack(opt)
	if err != nil {
		return nil, err
	}
	ws := &warmStore{stack: st, reqs: reqs, want: want, populated: populated}
	for i, req := range reqs {
		got, err := st.client.Run(e.ctx, req)
		if err != nil {
			ws.close()
			return nil, fmt.Errorf("first warm fetch of point %d: %w", i, err)
		}
		wantSum, err1 := statsDigest(want[i].Stats)
		gotSum, err2 := statsDigest(got.Stats)
		if err1 != nil || err2 != nil || !got.Cached || wantSum != gotSum {
			ws.close()
			return nil, fmt.Errorf("first warm fetch of point %d differs from the populated result (cached=%v)", i, got.Cached)
		}
	}
	return ws, nil
}

func (ws *warmStore) close() { ws.stack.close() }

// submit sends request i through the stack's client, waits for the
// reply, and checks it: cached, and the populated result. It returns
// when the request began, how long it took, and what failed.
func (ws *warmStore) submit(e *env, i int) (time.Time, time.Duration, error) {
	start := time.Now()
	got, err := ws.stack.client.Run(e.ctx, ws.reqs[i])
	took := time.Since(start)
	if err != nil {
		return start, took, fmt.Errorf("warm submit of point %d: %w", i, err)
	}
	return start, took, ws.check(i, got.Cached, got.Key, got.Cycles)
}

// serve hands request i to the stack's HTTP handler directly — same
// decode, submit, cache lookup and encode as a request off the wire,
// but no connection and no second goroutine — and checks the record it
// answers with. Only the handler call is timed.
func (ws *warmStore) serve(e *env, i int) (time.Time, time.Duration, error) {
	body, err := json.Marshal(ws.reqs[i])
	if err != nil {
		return time.Time{}, 0, err
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	start := time.Now()
	ws.stack.api.ServeHTTP(rec, req)
	took := time.Since(start)
	var job lightnuca.JobRecord
	if rec.Code != http.StatusOK {
		return start, took, fmt.Errorf("warm POST of point %d: HTTP %d %s", i, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || !job.Result.Valid() {
		return start, took, fmt.Errorf("warm POST of point %d: bad record (%v)", i, err)
	}
	return start, took, ws.check(i, job.Cached, job.Key, job.Result.Cycles)
}

// check compares a warm reply with the populated result.
func (ws *warmStore) check(i int, cached bool, key string, cycles uint64) error {
	switch want := ws.want[i]; {
	case !cached:
		return fmt.Errorf("warm submit of point %d was simulated, not served from the cache", i)
	case key != want.Key || cycles != want.Cycles:
		return fmt.Errorf("warm submit of point %d returned another result than the populated one", i)
	}
	return nil
}

// one issues the round-robin's next request through via (submit or
// serve) and books the outcome: one attempted operation, one latency
// sample, one failure if it did not check out.
func (ws *warmStore) one(e *env, rep *report, via func(*env, int) (time.Time, time.Duration, error)) (time.Time, time.Duration) {
	start, took, err := via(e, ws.next%len(ws.reqs))
	ws.next++
	rep.attempted++
	ws.samplesMS = append(ws.samplesMS, took.Seconds()*1e3)
	if err != nil {
		rep.fail(1, "%v", err)
	}
	return start, took
}

// batch issues n warm requests, one in flight, and returns their wall.
func (ws *warmStore) batch(e *env, rep *report, n int, via func(*env, int) (time.Time, time.Duration, error)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		ws.one(e, rep, via)
	}
	return time.Since(start)
}

// coldRep is one 32-point sweep through a fresh store and stack.
type coldRep struct {
	wall      time.Duration // RunSweep: submit to SweepStatus.Done
	sweepFrom time.Time
	status    lightnuca.SweepStatus
	instr     uint64    // window instructions over all points
	warmMS    []float64 // latency of each point's re-request
	leases    float64   // leases the coordinator granted
}

// sweepOnce builds a stack over a fresh store, runs the sweep through
// its client and hands the live stack to then (when non-nil) before
// tearing it down. It checks nothing: opt may stub the simulation out.
func sweepOnce(e *env, opt stackOptions, then func(*stack, *coldRep)) (coldRep, error) {
	var out coldRep
	dir, err := e.tempDir()
	if err != nil {
		return out, err
	}
	opt.dir = dir
	// Idle workers poll every 5ms here (production: 100ms): a worker's
	// idle sleep when the sweep arrives would otherwise add up to 100ms
	// of random phase to a ~0.7s sweep.
	opt.workerPoll = 5 * time.Millisecond
	st, err := newStack(opt)
	if err != nil {
		return out, err
	}
	defer st.close()
	out.sweepFrom = time.Now()
	out.status, err = st.client.RunSweep(e.ctx, sweepOf(e), nil)
	out.wall = time.Since(out.sweepFrom)
	if err != nil {
		return out, fmt.Errorf("sweep: %w", err)
	}
	if then != nil {
		then(st, &out)
	}
	return out, nil
}

// runColdRep is one repetition of sweep_cold: the sweep, then every
// point checked — done, valid, simulated not cached, its stored file
// byte-identical to the one a local run wrote into refDir — then the
// lease counters, then every point requested again, now cached.
func runColdRep(e *env, rep *report, refDir string, opt stackOptions, then func(*stack, *coldRep)) coldRep {
	reqs := sweepRequests(e)
	rep.attempted += len(reqs)
	opt.workers = fleetWorkers
	out, err := sweepOnce(e, opt, func(st *stack, out *coldRep) {
		if len(out.status.Jobs) != len(reqs) {
			rep.fail(len(reqs), "sweep returned %d of %d points", len(out.status.Jobs), len(reqs))
			return
		}
		for i, job := range out.status.Jobs {
			switch {
			case job.Status != lightnuca.StatusDone || !job.Result.Valid():
				rep.fail(1, "point %d: status %s %s", i, job.Status, job.Error)
			case job.Cached:
				rep.fail(1, "point %d of a cold sweep was served from the cache", i)
			default:
				out.instr += pointInstr(e, job.Result.Stats)
				name := job.Key + ".json"
				got, err1 := os.ReadFile(filepath.Join(st.dir, name))
				want, err2 := os.ReadFile(filepath.Join(refDir, name))
				if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
					rep.fail(1, "point %d: stored result %s differs from the local run's", i, name)
				}
			}
		}
		var err error
		if out.leases, err = st.scrapeCounter("lnuca_fleet_leases_granted_total"); err != nil || out.leases != float64(len(reqs)) {
			rep.fail(1, "leases granted = %v (%v), want %d", out.leases, err, len(reqs))
		}
		if requeues, err := st.scrapeCounter("lnuca_fleet_requeues_total"); err != nil || requeues != 0 {
			rep.fail(1, "requeues = %v (%v), want 0", requeues, err)
		}
		for i, req := range reqs {
			rep.attempted++
			start := time.Now()
			got, err := st.client.Run(e.ctx, req)
			out.warmMS = append(out.warmMS, time.Since(start).Seconds()*1e3)
			if err != nil || !got.Cached || got.Key != out.status.Jobs[i].Key {
				rep.fail(1, "re-request of point %d after the sweep: cached=%v err=%v", i, got.Cached, err)
			}
		}
		if then != nil {
			then(st, out)
		}
	})
	if err != nil {
		rep.fail(len(reqs), "%v", err)
	}
	return out
}

// runSweepCold measures the service's sweep throughput on a cold store.
// Set-up is the reference store (the same points run locally) plus a
// discarded repetition; it is taken setupReps times and the median
// reported, since a sub-second set-up is all noise when taken once.
func runSweepCold(e *env) (*report, error) {
	rep := newReport("sweep_cold")
	var setups []float64
	var refDir string
	for i := 0; i < e.sz.setupReps; i++ {
		start := time.Now()
		dir, err := e.tempDir()
		if err != nil {
			return nil, err
		}
		ref, err := populate(e, dir, sweepRequests(e))
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		runColdRep(e, rep, dir, stackOptions{}, nil)
		setups = append(setups, time.Since(start).Seconds())
		refDir = dir
		if rep.statsSHA256, err = resultsDigest(ref); err != nil {
			return nil, err
		}
	}
	rep.metrics["setup_s"] = median(setups)

	var wallsS, warmMS []float64
	var instr uint64
	for measured := time.Now(); ; {
		r := runColdRep(e, rep, refDir, stackOptions{}, nil)
		wallsS = append(wallsS, r.wall.Seconds())
		warmMS = append(warmMS, r.warmMS...)
		instr = r.instr
		if time.Since(measured).Seconds() >= e.seconds {
			break
		}
	}
	wall := median(wallsS)
	rep.metrics["points_per_s"] = ratio(float64(len(sweepRequests(e))), wall)
	rep.metrics["sim_mips"] = ratio(float64(instr)/1e6, wall)
	rep.metrics["warm_submit_p50_ms"] = median(warmMS)
	rep.note("%d timed sweeps of %d points; %d warm submits", len(wallsS), len(sweepRequests(e)), len(warmMS))
	return rep, nil
}

// resultsDigest folds the statistics of a sweep's results, in point
// order, into the workload's stats_sha256.
func resultsDigest(results []lightnuca.Result) (string, error) {
	cells := make([]cellResult, len(results))
	for i, r := range results {
		var err error
		if cells[i].digest, err = statsDigest(r.Stats); err != nil {
			return "", err
		}
	}
	return workloadDigest(cells), nil
}

// runSweepWarm measures submit-to-result on a store that already holds
// every point: batches of warm submits, one in flight, until the run's
// seconds are used. Throughput is the median batch rate — a mean over
// the window would let one noisy burst of the box move it. No cycle is
// simulated while it measures, so sim_mips is what filling the store
// ran at: the 32 points through lightnuca.Local, two at a time.
func runSweepWarm(e *env) (*report, error) {
	rep := newReport("sweep_warm")
	var setups, populates []float64
	var ws *warmStore
	for i := 0; i < e.sz.setupReps; i++ {
		if ws != nil {
			ws.close()
		}
		start := time.Now()
		var err error
		if ws, err = newWarmStore(e, sweepRequests(e), stackOptions{workers: fleetWorkers}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		populates = append(populates, ws.populated.Seconds())
	}
	defer ws.close()
	rep.metrics["setup_s"] = median(setups)
	var err error
	if rep.statsSHA256, err = resultsDigest(ws.want); err != nil {
		return nil, err
	}
	var instr uint64
	for _, r := range ws.want {
		instr += pointInstr(e, r.Stats)
	}
	rep.metrics["sim_mips"] = ratio(float64(instr)/1e6, median(populates))

	var rates []float64
	for measured := time.Now(); ; {
		took := ws.batch(e, rep, e.sz.warmBatch, ws.submit)
		rates = append(rates, ratio(float64(e.sz.warmBatch), took.Seconds()))
		if time.Since(measured).Seconds() >= e.seconds {
			break
		}
	}
	rep.metrics["points_per_s"] = median(rates)
	rep.metrics["warm_submit_p50_ms"] = median(ws.samplesMS)
	tail := highestPercentile(len(ws.samplesMS))
	rep.note("warm submit latency over %d samples: p50 %.4f ms, p%g %.4f ms",
		len(ws.samplesMS), median(ws.samplesMS), tail, percentile(ws.samplesMS, tail))
	return rep, nil
}
