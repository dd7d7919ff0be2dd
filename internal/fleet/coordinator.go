package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
	"repro/internal/trace"
)

// Config tunes a Coordinator.
type Config struct {
	// LeaseTTL is how long a worker may go silent before its lease
	// expires and the job is requeued (default 10s). Workers heartbeat
	// at a third of this.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many leases one job may consume before it
	// fails terminally (default 3). Every lease grant counts — including
	// ones lost to a dead worker.
	MaxAttempts int
	// RetryBaseDelay and RetryMaxDelay shape the capped exponential
	// backoff between a requeue and the job's next lease (defaults
	// 500ms and 30s): delay = min(base << (attempt-1), max).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// Traces is the coordinator-side trace store workers fetch recorded
	// streams from on a local miss (default: a fresh memory-only store;
	// lnucad shares the orchestrator's).
	Traces *trace.Store
	// Logger receives lease-lifecycle events (default: discard).
	Logger *slog.Logger
	// Registry, when set, exports the lnuca_fleet_* metrics.
	Registry *obs.Registry
	// Events, when set, receives lease-lifecycle events (grants,
	// expiries, requeues, completions) correlated by trace ID in the
	// flight recorder, next to the spans of the same trace.
	Events *tracez.FlightRecorder
	// Spans, when set, ingests the worker-side spans piggybacked on
	// lease completions (after validation). lnucad points this at the
	// same recorder chain the orchestrator's tracer writes to.
	Spans tracez.Recorder
}

// dispatchResult is what a finished fleet job delivers back to its
// blocked Dispatch call.
type dispatchResult struct {
	res *orchestrator.JobResult
	err error
}

// fleetJob is one dispatched job's coordinator-side state. It is
// guarded by Coordinator.mu except for done (written exactly once by
// whoever terminates the job, read by the blocked Dispatch).
type fleetJob struct {
	id       string
	key      string
	priority int
	req      orchestrator.Request
	attempt  int // leases granted so far
	seq      uint64
	readyAt  time.Time // backoff gate of a requeued job; leasable once passed
	canceled bool
	leaseID  string // current lease, "" when queued
	progress func(done, total uint64)
	done     chan dispatchResult // buffered 1

	enqueuedAt time.Time

	// traceparent/traceID carry the dispatch span's context: the header
	// travels to workers on every lease grant, the ID correlates
	// lease-lifecycle events in the flight recorder. Empty when the
	// dispatching context carried no trace.
	traceparent string
	traceID     string
	// runStarted tells the orchestrator a worker picked the job up (the
	// Timeline's queue→run boundary). Called on every lease grant, so a
	// job requeued after a dead lease restarts its run clock — run
	// seconds never count a lease nobody executed.
	runStarted func(worker string)
}

// lease is one worker's claim on a job.
type lease struct {
	id       string
	job      *fleetJob
	worker   string
	deadline time.Time
}

// Coordinator owns the fleet's lease table. Its Dispatch method is an
// orchestrator.RunFunc: the orchestrator's worker pool becomes the
// dispatch-concurrency bound, and every job the fleet executes flows
// through the orchestrator's usual submit, coalesce, cache and counter
// paths. The orchestrator's queue is the service's one priority queue:
// only its pool goroutines call Dispatch, so waiting never holds more
// than orchestrator.Config.Workers jobs and a scan orders it.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	waiting []*fleetJob // dispatched and not leased, backoff-delayed retries included
	leases  map[string]*lease
	workers map[string]time.Time // worker name -> last poll
	seq     uint64
	closed  bool

	stopReaper context.CancelFunc
	reaperDone chan struct{}

	log *slog.Logger

	// lnuca_fleet_* instruments; nil without a Config.Registry.
	leasesGranted   *obs.Counter
	requeues        *obs.Counter
	workerErrors    *obs.Counter
	jobsFailed      *obs.Counter
	results         *obs.Counter
	lateCompletions *obs.Counter
	releases        *obs.Counter
	heartbeats      *obs.Counter
	dispatchSeconds *obs.Histogram
}

// NewCoordinator starts a coordinator and its lease reaper.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 500 * time.Millisecond
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = 30 * time.Second
	}
	if cfg.Traces == nil {
		cfg.Traces = trace.NewStore("")
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	c := &Coordinator{
		cfg:        cfg,
		leases:     make(map[string]*lease),
		workers:    make(map[string]time.Time),
		reaperDone: make(chan struct{}),
		log:        cfg.Logger,
	}
	if cfg.Registry != nil {
		c.register(cfg.Registry)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stopReaper = cancel
	go c.reaper(ctx)
	return c
}

// register exports the fleet's operational state on reg.
func (c *Coordinator) register(reg *obs.Registry) {
	c.leasesGranted = reg.Counter("lnuca_fleet_leases_granted_total",
		"Leases handed to workers (every attempt of every job).")
	c.requeues = reg.Counter("lnuca_fleet_requeues_total",
		"Jobs requeued after a lease expired or a worker reported a retryable failure.")
	c.workerErrors = reg.Counter("lnuca_fleet_worker_errors_total",
		"Lease completions that carried an error instead of a result.")
	c.jobsFailed = reg.Counter("lnuca_fleet_jobs_failed_total",
		"Fleet jobs that failed terminally (attempts exhausted or a deterministic error).")
	c.results = reg.Counter("lnuca_fleet_results_total",
		"Results accepted from workers.")
	c.lateCompletions = reg.Counter("lnuca_fleet_late_completions_total",
		"Completions for leases already expired or requeued (answered 410 Gone).")
	c.releases = reg.Counter("lnuca_fleet_releases_total",
		"Leases explicitly handed back by draining workers (attempt refunded, job requeued immediately).")
	c.heartbeats = reg.Counter("lnuca_fleet_heartbeats_total",
		"Worker heartbeats received.")
	c.dispatchSeconds = reg.Histogram("lnuca_fleet_dispatch_seconds",
		"Wall time from fleet dispatch to terminal outcome, retries included.",
		[]float64{0.05, 0.25, 1, 5, 30, 120, 600})
	reg.GaugeFunc("lnuca_fleet_jobs_pending",
		"Dispatched jobs waiting for a worker (backoff-delayed retries included).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.waiting))
		})
	reg.GaugeFunc("lnuca_fleet_leases_active",
		"Jobs currently leased to a worker.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.leases))
		})
	reg.GaugeFunc("lnuca_fleet_workers_active",
		"Distinct workers that polled for work within three lease TTLs.",
		func() float64 {
			cutoff := time.Now().Add(-3 * c.cfg.LeaseTTL)
			c.mu.Lock()
			seen := make([]time.Time, 0, len(c.workers))
			for _, at := range c.workers {
				seen = append(seen, at)
			}
			c.mu.Unlock()
			sort.Slice(seen, func(i, j int) bool { return seen[i].Before(seen[j]) })
			n := 0
			for _, at := range seen {
				if at.After(cutoff) {
					n++
				}
			}
			return float64(n)
		})
}

// Close stops the lease reaper. Close the orchestrator first: its
// shutdown cancels every blocked Dispatch, which is what unwinds
// in-flight fleet jobs.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.reaperDone
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.stopReaper()
	<-c.reaperDone
}

// Dispatch is the orchestrator.RunFunc of a fleet-backed daemon: it
// enqueues the job for the worker fleet and blocks until a worker
// delivers a result, the retry budget is exhausted, or ctx is canceled
// (the orchestrator's cancel path — the lease protocol then tells the
// executing worker to abort via its next heartbeat).
func (c *Coordinator) Dispatch(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
	span, sctx := tracez.StartSpan(ctx, "lnuca.fleet.dispatch")
	fj := &fleetJob{
		key:         j.Key(),
		priority:    j.Priority,
		req:         orchestrator.RequestOf(j),
		progress:    progress,
		done:        make(chan dispatchResult, 1),
		enqueuedAt:  time.Now(),
		traceparent: tracez.Inject(sctx),
		traceID:     tracez.TraceIDFrom(sctx),
		// The closure carries the orchestrator's run-started hook (a ctx
		// value) across the lease protocol without fleet depending on the
		// orchestrator's internals.
		runStarted: func(worker string) { orchestrator.RunStarted(sctx, worker) },
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		span.Finish()
		return nil, fmt.Errorf("fleet: coordinator closed")
	}
	c.seq++
	fj.id = fmt.Sprintf("fleet-%06d", c.seq)
	fj.seq = c.seq
	c.waiting = append(c.waiting, fj)
	c.mu.Unlock()
	c.log.Info("fleet dispatch", "fleet_id", fj.id, "key", fj.key)

	select {
	case r := <-fj.done:
		c.observeDispatch(fj)
		c.finishDispatchSpan(span, fj, r.err)
		return r.res, r.err
	case <-ctx.Done():
		c.mu.Lock()
		fj.canceled = true
		c.dropWaitingLocked(fj)
		c.mu.Unlock()
		c.observeDispatch(fj)
		c.log.Info("fleet dispatch canceled", "fleet_id", fj.id, "key", fj.key)
		c.finishDispatchSpan(span, fj, ctx.Err())
		return nil, ctx.Err()
	}
}

// finishDispatchSpan closes the dispatch span with the attempts the job
// consumed and its outcome.
func (c *Coordinator) finishDispatchSpan(span *tracez.Span, fj *fleetJob, err error) {
	c.mu.Lock()
	attempts := fj.attempt
	c.mu.Unlock()
	span.SetAttr("attempts", fmt.Sprintf("%d", attempts))
	span.SetError(err)
	span.Finish()
}

// event records a lease-lifecycle event in the flight recorder, if one
// is configured. Safe under c.mu: the recorder is a leaf that never
// calls back into the coordinator.
func (c *Coordinator) event(kind, traceID, detail string) {
	if c.cfg.Events != nil {
		c.cfg.Events.Event(kind, traceID, detail)
	}
}

func (c *Coordinator) observeDispatch(fj *fleetJob) {
	c.dispatchSeconds.Observe(time.Since(fj.enqueuedAt).Seconds())
}

// dropWaitingLocked takes fj off the waiting list, if it is on it (a
// leased job is not).
func (c *Coordinator) dropWaitingLocked(fj *fleetJob) {
	if i := slices.Index(c.waiting, fj); i >= 0 {
		c.waiting = slices.Delete(c.waiting, i, i+1)
	}
}

// Lease grants the next dispatchable job to a polling worker — highest
// priority first, dispatch order within one priority, requeued jobs
// skipped until their backoff has passed — or nil when there is none.
// Implements the POST /fleet/v1/lease semantics.
func (c *Coordinator) Lease(worker string) *LeaseResponse {
	now := time.Now()
	c.mu.Lock()
	c.workers[worker] = now
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	var fj *fleetJob
	for _, w := range c.waiting {
		if w.readyAt.After(now) {
			continue
		}
		if fj == nil || w.priority > fj.priority || (w.priority == fj.priority && w.seq < fj.seq) {
			fj = w
		}
	}
	if fj == nil {
		c.mu.Unlock()
		return nil
	}
	c.dropWaitingLocked(fj)
	c.seq++
	l := &lease{
		id:       fmt.Sprintf("lease-%06d", c.seq),
		job:      fj,
		worker:   worker,
		deadline: now.Add(c.cfg.LeaseTTL),
	}
	fj.attempt++
	fj.leaseID = l.id
	c.leases[l.id] = l
	c.leasesGranted.Inc()
	c.log.Info("lease granted", "lease_id", l.id, "fleet_id", fj.id,
		"key", fj.key, "worker", worker, "attempt", fj.attempt)
	resp := &LeaseResponse{
		LeaseID:          l.id,
		JobID:            fj.id,
		Key:              fj.key,
		Request:          fj.req,
		Attempt:          fj.attempt,
		HeartbeatSeconds: c.cfg.LeaseTTL.Seconds(),
		Traceparent:      fj.traceparent,
	}
	runStarted := fj.runStarted
	traceID := fj.traceID
	c.mu.Unlock()
	c.event("lease_granted", traceID,
		fmt.Sprintf("lease %s worker %s attempt %d", resp.LeaseID, worker, resp.Attempt))
	// Outside c.mu: the hook takes the orchestrator's lock, and the
	// orchestrator may call back into the coordinator while holding it.
	if runStarted != nil {
		runStarted(worker)
	}
	return resp
}

// Heartbeat extends a lease and forwards progress; ok is false for an
// unknown or expired lease (the worker should abort — its job has been
// requeued). cancel tells the worker the submitter gave up.
func (c *Coordinator) Heartbeat(leaseID string, done, total uint64) (cancel, ok bool) {
	now := time.Now()
	c.mu.Lock()
	l, ok := c.leases[leaseID]
	if !ok {
		c.mu.Unlock()
		return false, false
	}
	l.deadline = now.Add(c.cfg.LeaseTTL)
	canceled := l.job.canceled
	progress := l.job.progress
	c.mu.Unlock()
	c.heartbeats.Inc()
	if progress != nil && total > 0 {
		progress(done, total)
	}
	return canceled, true
}

// Complete finishes a lease with a result or an error; ok is false for
// an unknown or expired lease (late completion — answered 410, and the
// requeued attempt's outcome is the one that counts).
func (c *Coordinator) Complete(req CompleteRequest) (ok bool) {
	// Worker spans are ingested even for late or canceled leases: the
	// execution happened, and its trace is worth keeping regardless of
	// which attempt's outcome won.
	c.ingestSpans(req.Spans)
	c.mu.Lock()
	l, found := c.leases[req.LeaseID]
	if !found {
		c.mu.Unlock()
		c.lateCompletions.Inc()
		return false
	}
	delete(c.leases, req.LeaseID)
	fj := l.job
	fj.leaseID = ""
	if fj.canceled {
		// The submitter is gone; drop the outcome on the floor.
		c.mu.Unlock()
		return true
	}
	if req.Error == "" && req.Result != nil {
		c.mu.Unlock()
		c.results.Inc()
		c.log.Info("fleet result", "lease_id", l.id, "fleet_id", fj.id,
			"key", fj.key, "worker", l.worker, "attempt", fj.attempt)
		c.event("completed", fj.traceID,
			fmt.Sprintf("lease %s worker %s delivered a result", l.id, l.worker))
		fj.done <- dispatchResult{res: req.Result}
		return true
	}
	if req.Released {
		// An explicit, healthy hand-back: the worker is draining and
		// could not finish. Refund the attempt and requeue immediately —
		// no backoff and no attempt burned, so a rolling restart of the
		// whole fleet can never exhaust a job's budget.
		if fj.attempt > 0 {
			fj.attempt--
		}
		c.waiting = append(c.waiting, fj)
		c.releases.Inc()
		c.log.Info("lease released by draining worker", "lease_id", l.id,
			"fleet_id", fj.id, "key", fj.key, "worker", l.worker)
		c.event("lease_released", fj.traceID,
			fmt.Sprintf("lease %s handed back by draining worker %s", l.id, l.worker))
		c.mu.Unlock()
		return true
	}
	// An error outcome. A result-less success is malformed and treated
	// as a retryable infrastructure failure.
	errMsg := req.Error
	retryable := req.Retryable
	if errMsg == "" {
		errMsg = "worker returned neither result nor error"
		retryable = true
	}
	c.workerErrors.Inc()
	c.log.Warn("fleet worker error", "lease_id", l.id, "fleet_id", fj.id,
		"key", fj.key, "worker", l.worker, "attempt", fj.attempt,
		"retryable", retryable, "error", errMsg)
	if retryable {
		c.requeueLocked(fj, errMsg, time.Now())
		c.mu.Unlock()
		return true
	}
	c.mu.Unlock()
	c.failJob(fj, fmt.Errorf("fleet: worker %s: %s", l.worker, errMsg))
	return true
}

// requeueLocked schedules another attempt for a job whose lease ended
// without a usable result, or fails it once its attempt budget is
// spent. Callers hold c.mu.
func (c *Coordinator) requeueLocked(fj *fleetJob, reason string, now time.Time) {
	if fj.attempt >= c.cfg.MaxAttempts {
		// done is buffered, so completing under the lock cannot block.
		c.failJob(fj, fmt.Errorf("fleet: job failed after %d attempts: %s", fj.attempt, reason))
		return
	}
	delay := c.backoff(fj.attempt)
	fj.readyAt = now.Add(delay)
	c.waiting = append(c.waiting, fj)
	c.requeues.Inc()
	c.log.Warn("fleet requeue", "fleet_id", fj.id, "key", fj.key,
		"attempt", fj.attempt, "backoff_seconds", delay.Seconds(), "reason", reason)
	c.event("requeued", fj.traceID,
		fmt.Sprintf("attempt %d: %s (backoff %.2fs)", fj.attempt, reason, delay.Seconds()))
}

// failJob delivers a terminal failure to the blocked Dispatch.
func (c *Coordinator) failJob(fj *fleetJob, err error) {
	c.jobsFailed.Inc()
	c.log.Warn("fleet job failed", "fleet_id", fj.id, "key", fj.key,
		"attempts", fj.attempt, "error", err)
	c.event("failed", fj.traceID, err.Error())
	fj.done <- dispatchResult{err: err}
}

// ingestSpans lands worker-shipped spans in the configured recorder,
// dropping malformed ones. Telemetry never fails a completion.
func (c *Coordinator) ingestSpans(spans []tracez.Span) {
	if c.cfg.Spans == nil {
		return
	}
	for _, s := range spans {
		if err := tracez.ValidSpan(s); err != nil {
			c.log.Warn("dropping invalid worker span", "name", s.Name, "error", err)
			continue
		}
		c.cfg.Spans.Record(s)
	}
}

// backoff is the capped exponential retry delay after the given number
// of completed attempts: base << (attempts-1), capped at RetryMaxDelay.
func (c *Coordinator) backoff(attempts int) time.Duration {
	d := c.cfg.RetryBaseDelay
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= c.cfg.RetryMaxDelay {
			return c.cfg.RetryMaxDelay
		}
	}
	if d > c.cfg.RetryMaxDelay {
		return c.cfg.RetryMaxDelay
	}
	return d
}

// reaper periodically requeues jobs whose leases expired — the dead-
// worker path: a worker that stops heartbeating loses its lease, and
// the job runs again elsewhere (its completed cache entry, if the dead
// worker got that far, makes the rerun a no-op at publish time).
func (c *Coordinator) reaper(ctx context.Context) {
	defer close(c.reaperDone)
	interval := c.cfg.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			c.expireLeases(now)
		}
	}
}

// expireLeases requeues every job whose lease deadline has passed.
func (c *Coordinator) expireLeases(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	held := make([]*lease, 0, len(c.leases))
	for _, l := range c.leases {
		held = append(held, l)
	}
	sort.Slice(held, func(i, j int) bool { return held[i].id < held[j].id })
	for _, l := range held {
		if !l.deadline.Before(now) {
			continue
		}
		delete(c.leases, l.id)
		fj := l.job
		fj.leaseID = ""
		c.event("lease_expired", fj.traceID,
			fmt.Sprintf("lease %s on worker %s missed its heartbeat deadline", l.id, l.worker))
		if fj.canceled {
			continue
		}
		c.requeueLocked(fj, fmt.Sprintf("lease %s on worker %s expired", l.id, l.worker), now)
	}
}
