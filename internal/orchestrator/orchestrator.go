package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/pqueue"
	"repro/internal/trace"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the state can no longer change.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Timeline is a job's lifecycle history: when it entered each state
// and how long it spent there. Served inside every JobRecord (GET
// /v1/jobs/{id}) and summarized in the orchestrator metrics.
type Timeline struct {
	// SubmittedAt is when the orchestrator accepted the job.
	SubmittedAt time.Time `json:"submitted_at"`
	// StartedAt is when a worker picked the job up (unset while queued
	// and for cache hits, which never run).
	StartedAt *time.Time `json:"started_at,omitempty"`
	// FinishedAt is when the job reached a terminal state.
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// QueueSeconds is the time from submission to pickup — still
	// accruing for a queued job. RunSeconds is pickup to terminal —
	// still accruing for a running job.
	QueueSeconds float64 `json:"queue_seconds"`
	RunSeconds   float64 `json:"run_seconds,omitempty"`
}

// JobRecord is the externally visible snapshot of a submitted job.
type JobRecord struct {
	ID       string  `json:"id"`
	Key      string  `json:"key"`
	Job      Job     `json:"job"`
	Status   Status  `json:"status"`
	Progress float64 `json:"progress"` // 0..1 of the instruction budget
	// Cached means the job was satisfied from the result cache without
	// simulating; Coalesced means this submission was merged onto an
	// already in-flight identical job.
	Cached    bool       `json:"cached,omitempty"`
	Coalesced bool       `json:"coalesced,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	// Timeline records the submitted -> queued -> running -> terminal
	// lifecycle with durations.
	Timeline Timeline `json:"timeline"`
	// TraceID is the distributed trace this job's spans record under
	// (empty when tracing is off) — the handle for GET
	// /v1/traces/{jobid}/spans and /debug/tracez.
	TraceID string `json:"trace_id,omitempty"`
	// Worker names the fleet worker that executed (or is executing) the
	// job; empty for local pool runs and never-run jobs.
	Worker string `json:"worker,omitempty"`
}

// Config tunes an Orchestrator.
type Config struct {
	// Workers bounds concurrent simulations (default: 2).
	Workers int
	// Cache memoizes results (default: a fresh memory-only cache).
	Cache *Cache
	// Traces is the content-addressed trace store that trace jobs
	// resolve their recorded streams through (default: a fresh
	// memory-only store).
	Traces *trace.Store
	// Run, when set, replaces Engine.Run as what the engine executes on a
	// miss (a fleet coordinator's Dispatch, a test stub); nothing else.
	Run RunFunc
	// RecordCap bounds retained job records (default: 4096). Terminal
	// records beyond the cap are pruned oldest-first so a long-running
	// daemon's memory stays bounded; queued and running jobs are never
	// pruned.
	RecordCap int
	// Logger receives structured job-lifecycle events with per-job IDs
	// (default: discard).
	Logger *slog.Logger
	// Registry, when set, exports the orchestrator's operational
	// counters as Prometheus-style metrics: job totals, queue depth,
	// queue/run latency histograms, simulator throughput and kernel
	// activity (see DESIGN.md, "Observability", for the catalog).
	Registry *obs.Registry
	// QueueCap, when positive, bounds the number of queued jobs. Submit
	// returns ErrQueueFull once the queue is at capacity (coalesced and
	// cache-hit submissions are never rejected — they consume no queue
	// slot). The HTTP layer maps the error to 429 + Retry-After.
	QueueCap int
	// Journal, when set, records every queue transition so a restarted
	// daemon can resubmit the jobs that were queued or running when it
	// died (see Journal). The orchestrator appends to it; the owner
	// replays Pending() after construction and closes it on shutdown.
	Journal *Journal
	// Tracer, when set, opens spans for every submission's lifecycle
	// (submit/coalesce/cache-hit, then queue and run for jobs that
	// simulate) and threads the trace context into the RunFunc, so fleet
	// dispatch and worker execution parent under the job's trace. Nil
	// disables tracing at zero cost.
	Tracer *tracez.Tracer
	// Flight, when set, is the bounded in-memory store behind GET
	// /v1/traces/{jobid}/spans and /debug/tracez. It also receives
	// trace-correlated lifecycle events (coalesced submissions). Usually
	// the Tracer's recorder tees into it.
	Flight *tracez.FlightRecorder
}

// task is the internal mutable state behind a JobRecord.
type task struct {
	id       string
	key      string
	job      Job
	status   Status
	cached   bool
	errMsg   string
	result   *JobResult
	cancel   context.CancelFunc
	canceled bool // cancel requested while still queued
	seq      uint64
	heapIdx  int // -1 when not queued
	// rev is the orchestrator revision at this task's last status
	// transition: what a sweep poll's since= cursor is compared with.
	rev uint64

	// Lifecycle timestamps; startedAt/finishedAt are zero until the
	// transition happens. For fleet-dispatched jobs startedAt is reset
	// at every lease grant (see RunStarted), so RunSeconds measures the
	// lease that actually produced the result, not dead leases.
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	// Tracing state (all nil/empty when tracing is off). jobSpan is the
	// job's root span, open from submission to terminal; queueSpan and
	// runSpan bound the two lifecycle phases. worker is the fleet worker
	// executing the current lease, reported by RunStarted. All span
	// mutations happen under the orchestrator's mu.
	traceID   string
	jobSpan   *tracez.Span
	queueSpan *tracez.Span
	runSpan   *tracez.Span
	worker    string

	progDone, progTotal atomic.Uint64
}

// Orchestrator owns the job queue, the worker pool, the result cache
// and the trace store.
type Orchestrator struct {
	cfg    Config
	cache  *Cache
	traces *trace.Store
	engine *Engine // the pool enters its flight step after submit's lookup

	mu       sync.Mutex
	cond     *sync.Cond
	queue    *pqueue.Queue[*task]
	records  map[string]*task // by job ID
	byKey    map[string]*task // singleflight: content key -> live task
	sweeps   map[string][]string
	terminal []string // terminal record IDs, oldest first (pruning order)
	seq      uint64
	rev      uint64 // status transitions so far; see setStatusLocked
	closed   bool
	wg       sync.WaitGroup

	// moved is closed, and cleared, at every status transition and at
	// Close: a held sweep poll (SweepWait) then checks whether its sweep
	// is done. It is made only while a poll is held, so a cache hit
	// allocates nothing for it. Guarded by mu.
	moved chan struct{}

	started time.Time

	// Lifecycle counters, guarded by mu and updated in the same critical
	// section as the state transition they count, so any locked snapshot
	// satisfies submitted == coalesced + cached + executed + failed +
	// canceled + queueDepth + running exactly (the metrics-consistency
	// regression test pins this).
	submitted uint64
	coalesced uint64
	cached    uint64 // submissions served straight from the result cache
	executed  uint64 // simulations actually run to completion
	failed    uint64
	canceled  uint64

	log      *slog.Logger
	registry *obs.Registry

	// Registry-backed instruments (nil without a Config.Registry). The
	// Func-style counters read metricsSnap, refreshed once per scrape
	// via OnScrape, so one scrape is mutually consistent; histograms and
	// simulator totals are updated live at worker transitions.
	metricsSnap  atomic.Pointer[Metrics]
	queueSeconds *obs.Histogram
	runSeconds   *obs.Histogram
	runMIPS      *obs.Histogram
	simSteps     *obs.Counter
	simSkipped   *obs.Counter
	simInstr     *obs.Counter
}

// New starts an orchestrator and its worker pool.
func New(cfg Config) *Orchestrator {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Cache == nil {
		cfg.Cache = NewCache(0, "")
	}
	if cfg.Traces == nil {
		cfg.Traces = trace.NewStore("")
	}
	if cfg.RecordCap <= 0 {
		cfg.RecordCap = 4096
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	o := &Orchestrator{
		cfg:     cfg,
		cache:   cfg.Cache,
		traces:  cfg.Traces,
		engine:  NewEngine(cfg.Cache, cfg.Traces),
		queue:   newTaskQueue(),
		records: make(map[string]*task),
		byKey:   make(map[string]*task),
		sweeps:  make(map[string][]string),
		//lnuca:allow(determinism) job lifecycle timestamp; telemetry only, never in result content or keys
		started: time.Now(),
		log:     cfg.Logger,
	}
	if cfg.Run != nil {
		o.engine.exec = cfg.Run
	}
	o.metricsSnap.Store(&Metrics{})
	o.cond = sync.NewCond(&o.mu)
	if cfg.Registry != nil {
		o.registry = cfg.Registry
		o.register(cfg.Registry)
	}
	for i := 0; i < cfg.Workers; i++ {
		o.wg.Add(1)
		go o.worker()
	}
	return o
}

// register exports the orchestrator's operational state on reg. Totals
// and gauges read a snapshot refreshed once per scrape (all counters in
// one scrape come from the same locked Metrics() call); latency
// histograms and simulator totals accumulate live at worker
// transitions. Registration is get-or-create, so two orchestrators must
// not share one registry — the second would silently read the first's
// instruments; lnucad wires exactly one.
func (o *Orchestrator) register(reg *obs.Registry) {
	reg.OnScrape(func() {
		m := o.Metrics()
		o.metricsSnap.Store(&m)
	})
	snap := func(f func(*Metrics) uint64) func() uint64 {
		return func() uint64 { return f(o.metricsSnap.Load()) }
	}
	gauge := func(f func(*Metrics) float64) func() float64 {
		return func() float64 { return f(o.metricsSnap.Load()) }
	}
	reg.CounterFunc("lnuca_jobs_submitted_total",
		"Jobs accepted by the orchestrator (coalesced and cached submissions included).",
		snap(func(m *Metrics) uint64 { return m.Submitted }))
	reg.CounterFunc("lnuca_jobs_coalesced_total",
		"Submissions merged onto an identical in-flight job.",
		snap(func(m *Metrics) uint64 { return m.Coalesced }))
	reg.CounterFunc("lnuca_jobs_cached_total",
		"Submissions served straight from the result cache.",
		snap(func(m *Metrics) uint64 { return m.Cached }))
	reg.CounterFunc("lnuca_runs_executed_total",
		"Simulations run to completion by the worker pool.",
		snap(func(m *Metrics) uint64 { return m.Executed }))
	reg.CounterFunc("lnuca_jobs_failed_total",
		"Jobs that ended in failure.",
		snap(func(m *Metrics) uint64 { return m.Failed }))
	reg.CounterFunc("lnuca_jobs_canceled_total",
		"Jobs canceled while queued or running.",
		snap(func(m *Metrics) uint64 { return m.Canceled }))
	reg.CounterFunc("lnuca_cache_hits_total",
		"Result-cache hits.",
		snap(func(m *Metrics) uint64 { return m.CacheHits }))
	reg.CounterFunc("lnuca_cache_misses_total",
		"Result-cache misses.",
		snap(func(m *Metrics) uint64 { return m.CacheMisses }))
	reg.GaugeFunc("lnuca_queue_depth",
		"Jobs waiting for a worker.",
		gauge(func(m *Metrics) float64 { return float64(m.QueueDepth) }))
	reg.GaugeFunc("lnuca_jobs_running",
		"Jobs currently simulating.",
		gauge(func(m *Metrics) float64 { return float64(m.Running) }))
	reg.GaugeFunc("lnuca_workers",
		"Size of the worker pool.",
		gauge(func(m *Metrics) float64 { return float64(m.Workers) }))
	reg.GaugeFunc("lnuca_fleet_degraded",
		"1 while persistent journal/store write failures hold the daemon read-only (submits answered 503), 0 otherwise.",
		gauge(func(m *Metrics) float64 {
			if m.Degraded {
				return 1
			}
			return 0
		}))
	reg.GaugeFunc("lnuca_uptime_seconds",
		"Seconds since the orchestrator started.",
		gauge(func(m *Metrics) float64 { return m.UptimeSeconds }))
	o.queueSeconds = reg.Histogram("lnuca_job_queue_seconds",
		"Time jobs spent queued before a worker picked them up.",
		[]float64{0.001, 0.01, 0.1, 0.5, 1, 5, 30, 120})
	o.runSeconds = reg.Histogram("lnuca_job_run_seconds",
		"Wall time jobs spent running on a worker.",
		[]float64{0.01, 0.1, 0.5, 1, 5, 30, 120, 600})
	o.runMIPS = reg.Histogram("lnuca_run_mips",
		"Simulator throughput per executed run, in million committed instructions per wall second.",
		[]float64{0.5, 1, 2.5, 5, 10, 25, 50, 100})
	o.simSteps = reg.Counter("lnuca_sim_cycles_total",
		"Kernel cycles actually executed across all completed runs.")
	o.simSkipped = reg.Counter("lnuca_sim_fastforwarded_cycles_total",
		"Kernel cycles skipped by quiescence fast-forwarding across all completed runs.")
	o.simInstr = reg.Counter("lnuca_sim_instructions_total",
		"Committed instructions measured across all completed runs.")
}

// Cache exposes the orchestrator's result cache (shared with CLIs).
func (o *Orchestrator) Cache() *Cache { return o.cache }

// Traces exposes the orchestrator's trace store (the /v1/traces ingest
// and listing surface).
func (o *Orchestrator) Traces() *trace.Store { return o.traces }

// Registry returns the metrics registry the orchestrator exports on, or
// nil when none was configured.
func (o *Orchestrator) Registry() *obs.Registry { return o.registry }

// Uptime reports how long the orchestrator has been running.
//
//lnuca:allow(determinism) operational uptime telemetry, not result content
func (o *Orchestrator) Uptime() time.Duration { return time.Since(o.started) }

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("orchestrator: closed")

// ErrQueueFull is returned by Submit when Config.QueueCap is set and
// the queue is at capacity. It signals backpressure, not failure: the
// HTTP layer maps it to 429 with a Retry-After hint, and clients retry
// with backoff. Coalesced and cache-hit submissions are never rejected.
var ErrQueueFull = errors.New("orchestrator: queue full")

// ErrDegraded is returned by Submit while the journal or result store
// is failing durable writes persistently: accepting a job whose
// submission cannot be journaled (or whose result cannot be stored)
// would silently break the restart and never-simulate-twice contracts,
// so the daemon goes read-only instead of wedging. The HTTP layer maps
// it to 503 with a Retry-After hint. Coalesced and cache-hit
// submissions are still served — reads stay up.
var ErrDegraded = errors.New("orchestrator: degraded (read-only): persistent journal/store write failures")

// Degraded reports whether the orchestrator is refusing new work
// because its journal or result store has hit persistent write errors.
// It clears itself: the next successful durable write resets the
// consecutive-failure count.
func (o *Orchestrator) Degraded() bool {
	if o.cache.Degraded() {
		return true
	}
	return o.cfg.Journal != nil && o.cfg.Journal.Degraded()
}

// probeDegraded pokes whichever store is sick with one durable write,
// so recovery is observed even when no in-flight job remains to reset
// the failure count through its own completion writes.
func (o *Orchestrator) probeDegraded() {
	if o.cfg.Journal != nil && o.cfg.Journal.Degraded() {
		o.cfg.Journal.probe()
	}
	if o.cache.Degraded() {
		o.cache.probe()
	}
}

// Submit enqueues a job. Identical content is never computed twice: a
// cache hit returns an already-done record; a submission identical to a
// queued or running job coalesces onto it (same ID, Coalesced set).
//
// The lifecycle counters are incremented inside the same critical
// section as the accept decision, so a locked Metrics snapshot always
// balances: every accepted submission is exactly one of coalesced,
// cached, queued (still in the queue), running, or terminal.
func (o *Orchestrator) Submit(j Job) (JobRecord, error) {
	return o.SubmitCtx(context.Background(), j)
}

// SubmitCtx is Submit carrying the caller's trace context: when the
// orchestrator has a Tracer, the submission's spans parent under ctx's
// span context (a client span, or just its trace ID), so the whole
// client→coordinator→worker story shares one trace. With no Tracer
// configured the context is ignored and SubmitCtx is exactly Submit.
func (o *Orchestrator) SubmitCtx(ctx context.Context, j Job) (JobRecord, error) {
	nj, err := j.Normalize()
	if err != nil {
		return JobRecord{}, err
	}
	return o.submit(ctx, nj, true)
}

// submit accepts a pre-normalized job under a submit span. With
// syncJournal its journal line is durable when submit returns; without,
// the caller syncs the journal.
func (o *Orchestrator) submit(ctx context.Context, nj Job, syncJournal bool) (_ JobRecord, err error) {
	span, ctx := o.cfg.Tracer.Start(ctx, "lnuca.orch.submit")
	defer func() {
		span.SetError(err)
		span.Finish()
	}()
	key := nj.Key()

	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return JobRecord{}, ErrClosed
	}
	if rec, ok := o.coalesceLocked(key); ok {
		o.mu.Unlock()
		o.noteCoalesced(ctx, rec)
		return rec, nil
	}
	o.mu.Unlock()

	// Content-addressed memoization (outside the lock: may touch disk).
	if res, ok := o.cache.Get(key); ok {
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			return JobRecord{}, ErrClosed
		}
		o.submitted++
		o.cached++
		t := o.newTaskLocked(nj, key)
		o.setStatusLocked(t, StatusDone)
		t.cached = true
		t.result = res
		t.traceID = tracez.TraceIDFrom(ctx)
		//lnuca:allow(determinism) job lifecycle timestamp; telemetry only, never in result content or keys
		now := time.Now()
		t.submittedAt = now
		t.finishedAt = now
		t.progDone.Store(1)
		t.progTotal.Store(1)
		rec := o.snapshot(t)
		o.markTerminalLocked(t)
		o.mu.Unlock()
		hit, _ := tracez.StartSpan(ctx, "lnuca.orch.cachehit")
		hit.Finish()
		// Only a replayed submission has a journal line to balance: a
		// pending entry resubmitted after a restart that is now a cache
		// hit would otherwise stay pending forever. Every other cache hit
		// — the warm-submit hot path — appends (and syncs) nothing, so
		// the file keeps tracking the live queue.
		if j := o.cfg.Journal; j != nil && j.takeCredit(key) {
			j.ended(t.id, key, StatusDone)
		}
		o.log.Info("job cached", "job_id", rec.ID, "key", key)
		return rec, nil
	}

	// The job will simulate: a trace run needs its recorded stream to
	// exist now, not fail in a worker minutes later. (Cache hits above
	// are still served even if the trace has since been deleted — the
	// result is content-addressed and remains valid.)
	if nj.Trace != "" && !o.traces.Has(nj.Trace) {
		return JobRecord{}, fmt.Errorf("orchestrator: unknown trace %s — upload it first (POST /v1/traces)", nj.Trace)
	}

	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return JobRecord{}, ErrClosed
	}
	// A concurrent identical submission may have won the race while the
	// cache was consulted; coalesce late rather than double-compute.
	if rec, ok := o.coalesceLocked(key); ok {
		o.mu.Unlock()
		o.noteCoalesced(ctx, rec)
		return rec, nil
	}
	// Backpressure: a bounded queue rejects rather than buffers without
	// limit. Coalesced and cached submissions never reach this point.
	if o.cfg.QueueCap > 0 && o.queue.Len() >= o.cfg.QueueCap {
		o.mu.Unlock()
		return JobRecord{}, ErrQueueFull
	}
	// Read-only degraded mode: refuse work that could not be made
	// durable. Checked after the coalesce/cache paths above, so reads
	// and already-computed results keep flowing while the disk is sick.
	// The rejection stands, but each one probes the sick store: once the
	// disk heals, the probe succeeds, the failure count resets, and the
	// next submit is accepted — no operator intervention needed.
	if o.Degraded() {
		o.mu.Unlock()
		o.probeDegraded()
		return JobRecord{}, ErrDegraded
	}
	o.submitted++
	t := o.newTaskLocked(nj, key)
	o.setStatusLocked(t, StatusQueued)
	//lnuca:allow(determinism) job lifecycle timestamp; telemetry only, never in result content or keys
	t.submittedAt = time.Now()
	// The job root span opens here and closes at the terminal
	// transition; queue and (later) run are its children. Children may
	// outlive the submit span that parents the root — that is normal
	// span semantics, not a leak.
	jobSpan, jctx := tracez.StartSpanAt(ctx, "lnuca.orch.job", t.submittedAt)
	if nj.Benchmark != "" {
		jobSpan.SetAttr("benchmark", nj.Benchmark)
	}
	jobSpan.SetAttr("hierarchy", nj.Hierarchy)
	t.jobSpan = jobSpan
	t.queueSpan, _ = tracez.StartSpanAt(jctx, "lnuca.orch.queue", t.submittedAt)
	t.traceID = tracez.TraceIDFrom(jctx)
	o.byKey[key] = t
	o.queue.Push(t)
	o.cond.Signal()
	rec := o.snapshot(t)
	o.mu.Unlock()
	switch j := o.cfg.Journal; {
	case j == nil:
	case syncJournal:
		j.submitted(t.id, key, RequestOf(nj))
	default:
		j.queued(t.id, key, RequestOf(nj))
	}
	o.log.Info("job submitted", "job_id", rec.ID, "key", key, "priority", nj.Priority)
	return rec, nil
}

// coalesceLocked is the job-level singleflight: it merges a submission
// onto the live task for this content and counts it — unless that
// task's cancellation was already requested, in which case a fresh
// submission must not inherit the pending cancel.
func (o *Orchestrator) coalesceLocked(key string) (JobRecord, bool) {
	live, ok := o.byKey[key]
	if !ok || live.canceled {
		return JobRecord{}, false
	}
	o.submitted++
	o.coalesced++
	rec := o.snapshot(live)
	rec.Coalesced = true
	return rec, true
}

// noteCoalesced records a coalesced submission in the log and in both
// places a trace shows it: an instant span on the SUBMITTER's trace (its
// story ends with "merged onto jobID") and an event on the WINNER's
// trace (other submissions piled onto it) — rec is the winner's
// snapshot.
func (o *Orchestrator) noteCoalesced(ctx context.Context, rec JobRecord) {
	cs, _ := tracez.StartSpan(ctx, "lnuca.orch.coalesce")
	cs.Finish()
	if rec.TraceID != "" {
		o.cfg.Flight.Event("coalesced", rec.TraceID, "submission "+tracez.TraceIDFrom(ctx)+" merged onto "+rec.ID)
	}
	o.log.Debug("job coalesced", "job_id", rec.ID, "key", rec.Key)
}

// runStartedKey carries the per-task run-(re)start callback through the
// RunFunc's context.
type runStartedKey struct{}

// RunStarted notifies the orchestrator that execution of the job behind
// ctx actually (re)started on the named worker. Fleet coordinators call
// it at every lease grant, so a dispatched job's Timeline splits queue
// vs run time at the moment a worker began executing — not when the
// dispatch was enqueued — and a job requeued after a lease expiry
// counts its dead first lease as queue time, never run time. No-op for
// contexts without the hook (local pool runs, tests, stub RunFuncs).
func RunStarted(ctx context.Context, worker string) {
	if fn, ok := ctx.Value(runStartedKey{}).(func(string)); ok {
		fn(worker)
	}
}

// withRunStarted arms RunStarted for one task's run context.
func (o *Orchestrator) withRunStarted(ctx context.Context, t *task) context.Context {
	return context.WithValue(ctx, runStartedKey{}, func(worker string) {
		//lnuca:allow(determinism) job lifecycle timestamp; telemetry only, never in result content or keys
		now := time.Now()
		o.mu.Lock()
		if t.status == StatusRunning {
			t.startedAt = now
			t.worker = worker
		}
		o.mu.Unlock()
	})
}

// Flight returns the flight recorder behind the span endpoints, or nil
// when tracing is off.
func (o *Orchestrator) Flight() *tracez.FlightRecorder { return o.cfg.Flight }

// SpanRecorder returns the sink remotely produced spans (client submit
// spans via POST /v1/spans) should land in — the same recorder local
// spans use — or nil when tracing is off.
func (o *Orchestrator) SpanRecorder() tracez.Recorder { return o.cfg.Tracer.Recorder() }

// TraceIDOf maps a job ID to its trace ID ("" when unknown or traced
// out of retention).
func (o *Orchestrator) TraceIDOf(jobID string) (string, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.records[jobID]
	if !ok {
		return "", false
	}
	return t.traceID, true
}

func (o *Orchestrator) newTaskLocked(j Job, key string) *task {
	o.seq++
	t := &task{
		id:      jobID(o.seq),
		key:     key,
		job:     j,
		seq:     o.seq,
		heapIdx: -1,
	}
	o.records[t.id] = t
	return t
}

// jobID is fmt.Sprintf("job-%06d", seq).
func jobID(seq uint64) string {
	var buf [32]byte
	b := append(buf[:0], "job-"...)
	for limit := uint64(100000); limit > 1 && seq < limit; limit /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendUint(b, seq, 10))
}

// setStatusLocked is the one place a task's status changes. It stamps the
// task with the next revision, so a sweep poll that names the revision it
// last saw (SweepSince) is sent only the records that moved since.
func (o *Orchestrator) setStatusLocked(t *task, s Status) {
	o.rev++
	t.status, t.rev = s, o.rev
	o.wakeLocked()
}

// wakeLocked ends the current wait of every held sweep poll.
func (o *Orchestrator) wakeLocked() {
	if o.moved != nil {
		close(o.moved)
		o.moved = nil
	}
}

// finishLocked is the one terminal transition of a task that was queued
// or running: status, finish time, singleflight release, lifecycle
// counter, span close, retention. err is the run's error (nil for done,
// and for a task canceled before it ran).
func (o *Orchestrator) finishLocked(t *task, status Status, err error) {
	o.setStatusLocked(t, status)
	//lnuca:allow(determinism) job lifecycle timestamp; telemetry only, never in result content or keys
	t.finishedAt = time.Now()
	// A cancel-then-resubmit may have replaced this key's live task;
	// only remove the entry if it is still ours.
	if o.byKey[t.key] == t {
		delete(o.byKey, t.key)
	}
	switch status {
	case StatusDone:
		o.executed++
	case StatusFailed:
		o.failed++
	default:
		o.canceled++
	}
	// Whichever phase is still open closes here — queue for a task that
	// never ran, run for one that did (finishing a span twice records
	// once; a nil span is a no-op).
	t.queueSpan.FinishAt(t.finishedAt)
	if t.worker != "" {
		t.runSpan.SetAttr("worker", t.worker)
	}
	t.runSpan.SetAttr("status", string(status))
	t.runSpan.SetError(err)
	t.runSpan.FinishAt(t.finishedAt)
	t.jobSpan.SetAttr("status", string(status))
	t.jobSpan.SetError(err)
	t.jobSpan.FinishAt(t.finishedAt)
	o.markTerminalLocked(t)
}

// markTerminalLocked registers a task that just reached a terminal
// state and prunes the oldest terminal records beyond the retention
// cap. Live (queued/running) records are never pruned.
func (o *Orchestrator) markTerminalLocked(t *task) {
	o.terminal = append(o.terminal, t.id)
	for len(o.terminal) > 0 && len(o.records) > o.cfg.RecordCap {
		oldest := o.terminal[0]
		o.terminal = o.terminal[1:]
		delete(o.records, oldest)
	}
}

// Get returns the record for a job ID.
func (o *Orchestrator) Get(id string) (JobRecord, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.records[id]
	if !ok {
		return JobRecord{}, false
	}
	return o.snapshot(t), true
}

// Lookup consults the result cache directly by job content, without
// enqueuing anything. An invalid job is an error, distinct from a
// valid-but-uncached one (nil, false, nil).
func (o *Orchestrator) Lookup(j Job) (*JobResult, bool, error) {
	nj, err := j.Normalize()
	if err != nil {
		return nil, false, err
	}
	res, ok := o.cache.Get(nj.Key())
	return res, ok, nil
}

// List returns every record, optionally filtered by status.
func (o *Orchestrator) List(status Status) []JobRecord {
	o.mu.Lock()
	defer o.mu.Unlock()
	// Records live in a map; present them in submission order so
	// /v1/jobs listings are stable across calls.
	tasks := make([]*task, 0, len(o.records))
	for _, t := range o.records {
		if status != "" && t.status != status {
			continue
		}
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].seq < tasks[j].seq })
	out := make([]JobRecord, 0, len(tasks))
	for _, t := range tasks {
		out = append(out, o.snapshot(t))
	}
	return out
}

// Cancel aborts a job: dequeued if still queued, its context cancelled
// if running. Terminal jobs are left untouched.
func (o *Orchestrator) Cancel(id string) (JobRecord, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.records[id]
	if !ok {
		return JobRecord{}, false
	}
	switch t.status {
	case StatusQueued:
		if t.heapIdx >= 0 {
			o.queue.RemoveAt(t.heapIdx)
		}
		t.canceled = true
		o.finishLocked(t, StatusCanceled, nil)
		// An explicit cancel is journaled (unlike the implicit ones during
		// Close): the user asked for the job not to run, so a restart must
		// not resurrect it.
		if o.cfg.Journal != nil {
			o.cfg.Journal.ended(t.id, t.key, StatusCanceled)
		}
		o.log.Info("job canceled", "job_id", t.id, "key", t.key, "while", "queued")
	case StatusRunning:
		t.canceled = true
		if t.cancel != nil {
			t.cancel()
		}
	}
	return o.snapshot(t), true
}

// SubmitSweep expands a benchmark x hierarchy matrix into jobs and
// submits each one, returning the sweep ID and the per-cell records.
// Every job is validated before any is enqueued, so an invalid cell
// rejects the whole sweep instead of leaving orphaned runs behind. The
// cells' journal lines are synced once, before it returns.
func (o *Orchestrator) SubmitSweep(jobs []Job) (string, []JobRecord, error) {
	if len(jobs) == 0 {
		return "", nil, errors.New("orchestrator: empty sweep")
	}
	normalized := make([]Job, len(jobs))
	for i, j := range jobs {
		nj, err := j.Normalize()
		if err != nil {
			return "", nil, fmt.Errorf("sweep cell %d: %w", i, err)
		}
		normalized[i] = nj
	}
	if j := o.cfg.Journal; j != nil {
		defer j.sync() // the cells accepted before an error too
	}
	recs := make([]JobRecord, 0, len(normalized))
	ids := make([]string, 0, len(normalized))
	for _, nj := range normalized {
		rec, err := o.submit(context.Background(), nj, false)
		if err != nil {
			return "", nil, err
		}
		recs = append(recs, rec)
		ids = append(ids, rec.ID)
	}
	o.mu.Lock()
	o.seq++
	sid := fmt.Sprintf("sweep-%04d", o.seq)
	o.sweeps[sid] = ids
	o.mu.Unlock()
	return sid, recs, nil
}

// SweepStatus summarizes one sweep.
type SweepStatus struct {
	ID      string         `json:"id"`
	Total   int            `json:"total"`
	ByState map[Status]int `json:"by_state"`
	// Pruned counts cells whose terminal records aged out of the
	// retention cap; they completed, but their snapshots are gone.
	Pruned int  `json:"pruned,omitempty"`
	Done   bool `json:"done"` // every job terminal
	// Jobs holds, in sweep order, the cells that changed status after the
	// revision the request named: every retained cell when it named none.
	Jobs []JobRecord `json:"jobs"`
	// Cursor is the revision this answer is current to: passed back as
	// since, the next answer carries only what changed after it.
	Cursor uint64 `json:"cursor"`
}

// Sweep returns the aggregated status of a sweep with every retained
// cell's record.
func (o *Orchestrator) Sweep(id string) (SweepStatus, bool) { return o.SweepSince(id, 0) }

// SweepSince returns the status of a sweep as a delta: the counts cover
// every cell, Jobs only the cells whose status changed after revision
// since (a Cursor from an earlier answer; 0 selects them all). A cell is
// therefore sent once per transition — queued, running, terminal with its
// result — and a poll costs what changed, not what exists. A live cell's
// progress and timeline are as of its last transition, not of the poll:
// Progress (GET /v1/sweeps/{id}/progress) is the live view. Asking again
// with the same since returns at least the same records, so a retried
// poll loses nothing.
func (o *Orchestrator) SweepSince(id string, since uint64) (SweepStatus, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids, ok := o.sweeps[id]
	if !ok {
		return SweepStatus{}, false
	}
	st := SweepStatus{
		ID: id, Total: len(ids), ByState: map[Status]int{}, Done: true, Cursor: o.rev,
		Jobs: []JobRecord{}, // "jobs":[] on the wire when nothing changed, not null
	}
	for _, jid := range ids {
		t, ok := o.records[jid]
		if !ok {
			// Only terminal records are ever pruned.
			st.Pruned++
			continue
		}
		st.ByState[t.status]++
		if !t.status.Terminal() {
			st.Done = false
		}
		if t.rev > since {
			st.Jobs = append(st.Jobs, o.snapshot(t))
		}
	}
	return st, true
}

// SweepWait is SweepSince held, for up to wait, while the sweep is not
// done: it answers as soon as every cell is terminal, or once wait
// passes, ctx ends or the orchestrator closes — with the same delta
// SweepSince would. The hold does not end at a cell's transition, so a
// client polling once per interval is sent as many answers as before it
// held, each of them sooner when the sweep ends.
func (o *Orchestrator) SweepWait(ctx context.Context, id string, since uint64, wait time.Duration) (SweepStatus, bool) {
	if wait > 0 {
		o.holdSweep(ctx, id, wait)
	}
	return o.SweepSince(id, since)
}

// holdSweep returns once sweep id is done or unknown, wait has passed,
// ctx has ended or the orchestrator has closed.
func (o *Orchestrator) holdSweep(ctx context.Context, id string, wait time.Duration) {
	//lnuca:allow(determinism) how long a status poll is held; never result content or keys
	t := time.NewTimer(wait)
	defer t.Stop()
	for {
		o.mu.Lock()
		ids, ok := o.sweeps[id]
		if !ok || o.closed || o.sweepDoneLocked(ids) {
			o.mu.Unlock()
			return
		}
		if o.moved == nil {
			o.moved = make(chan struct{})
		}
		moved := o.moved
		o.mu.Unlock()
		select {
		case <-moved:
		case <-t.C:
			return
		case <-ctx.Done():
			return
		}
	}
}

// sweepDoneLocked reports whether every retained cell of a sweep is
// terminal (pruned cells were).
func (o *Orchestrator) sweepDoneLocked(ids []string) bool {
	for _, jid := range ids {
		if t, ok := o.records[jid]; ok && !t.status.Terminal() {
			return false
		}
	}
	return true
}

// ExpandSweep builds the job list for hierarchies x benchmarks. Levels
// applies to hierarchies with an L-NUCA; an empty slice means the
// default depth 3. Non-L-NUCA hierarchies contribute one spec each.
func ExpandSweep(kinds []hier.Kind, levels []int, benchmarks []string, mode exp.Mode, seed uint64) []Job {
	if len(levels) == 0 {
		levels = []int{hier.DefaultLevels}
	}
	var jobs []Job
	for _, k := range kinds {
		lvls := []int{0}
		if k.HasLNUCA() {
			lvls = levels
		}
		for _, lv := range lvls {
			for _, b := range benchmarks {
				jobs = append(jobs, Job{Kind: k, Levels: lv, Benchmark: b, Mode: mode, Seed: seed})
			}
		}
	}
	return jobs
}

// Metrics is the operational counter snapshot served at /metrics.
type Metrics struct {
	QueueDepth    int     `json:"queue_depth"`
	Running       int     `json:"running"`
	Workers       int     `json:"workers"`
	Submitted     uint64  `json:"jobs_submitted"`
	Coalesced     uint64  `json:"jobs_coalesced"`
	Cached        uint64  `json:"jobs_cached"`
	Executed      uint64  `json:"runs_executed"`
	Failed        uint64  `json:"runs_failed"`
	Canceled      uint64  `json:"jobs_canceled"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	RunsPerSecond float64 `json:"runs_per_second"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Degraded      bool    `json:"degraded"`
}

// Metrics snapshots the counters. Queue depth, the running count and
// every lifecycle counter are read inside one critical section — the
// same lock their transitions update them under — so the snapshot
// always balances: Submitted == Coalesced + Cached + Executed + Failed
// + Canceled + QueueDepth + Running.
func (o *Orchestrator) Metrics() Metrics {
	o.mu.Lock()
	running := 0
	for _, t := range o.records {
		if t.status == StatusRunning {
			running++
		}
	}
	m := Metrics{
		QueueDepth: o.queue.Len(),
		Running:    running,
		Workers:    o.cfg.Workers,
		Submitted:  o.submitted,
		Coalesced:  o.coalesced,
		Cached:     o.cached,
		Executed:   o.executed,
		Failed:     o.failed,
		Canceled:   o.canceled,
	}
	o.mu.Unlock()
	//lnuca:allow(determinism) operational uptime metric, not result content
	up := time.Since(o.started).Seconds()
	m.CacheHits = o.cache.Hits()
	m.CacheMisses = o.cache.Misses()
	m.CacheHitRate = o.cache.HitRate()
	m.UptimeSeconds = up
	m.Degraded = o.Degraded()
	if up > 0 {
		m.RunsPerSecond = float64(m.Executed) / up
	}
	return m
}

// Close stops accepting jobs, cancels running ones, and waits for the
// workers to exit. Queued jobs are marked canceled.
func (o *Orchestrator) Close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		o.wg.Wait()
		return
	}
	o.closed = true
	o.wakeLocked()
	// Shutdown cancellations are deliberately NOT journaled: a drained
	// queue is exactly the state a restarted daemon must resubmit, so the
	// journal keeps these jobs pending.
	for o.queue.Len() > 0 {
		t, _ := o.queue.Pop()
		o.finishLocked(t, StatusCanceled, nil)
	}
	//lnuca:allow(determinism) cancellation order is unobservable; every remaining task is canceled regardless of order
	for _, t := range o.records {
		if t.status == StatusRunning && t.cancel != nil {
			t.cancel()
		}
	}
	o.cond.Broadcast()
	o.mu.Unlock()
	o.wg.Wait()
}

// worker is one pool goroutine: pop the highest-priority task and get its
// result through the engine.
func (o *Orchestrator) worker() {
	defer o.wg.Done()
	for {
		o.mu.Lock()
		for o.queue.Len() == 0 && !o.closed {
			o.cond.Wait()
		}
		if o.closed {
			o.mu.Unlock()
			return
		}
		t, _ := o.queue.Pop()
		o.setStatusLocked(t, StatusRunning)
		//lnuca:allow(determinism) job lifecycle timestamp; telemetry only, never in result content or keys
		t.startedAt = time.Now()
		queued := t.startedAt.Sub(t.submittedAt)
		t.queueSpan.FinishAt(t.startedAt)
		// The run context carries the tracer and the job span's identity,
		// so everything the RunFunc does — local phase spans, or a fleet
		// dispatch whose worker spans come back on complete — parents
		// under this job's trace; it also carries the RunStarted hook.
		base := tracez.WithTracer(context.Background(), o.cfg.Tracer)
		base = tracez.WithSpanContext(base, t.jobSpan.Context())
		runSpan, base := tracez.StartSpanAt(base, "lnuca.orch.run", t.startedAt)
		t.runSpan = runSpan
		ctx, cancel := context.WithCancel(o.withRunStarted(base, t))
		t.cancel = cancel
		o.mu.Unlock()

		o.queueSeconds.Observe(queued.Seconds())
		o.log.Info("job started", "job_id", t.id, "key", t.key,
			"queue_seconds", queued.Seconds())

		// submit made (and counted) the lookup, so the pool enters the
		// engine past it. The result is published before the key, then
		// byKey, is released: a submission in between coalesces or hits.
		res, _, err := o.engine.flight(ctx, t.key, t.job, func(done, total uint64) {
			t.progDone.Store(done)
			t.progTotal.Store(total)
		})
		cancel()

		o.mu.Lock()
		status := StatusDone
		switch {
		case err != nil && (errors.Is(err, context.Canceled) || t.canceled):
			status = StatusCanceled
			t.errMsg = context.Canceled.Error()
		case err != nil:
			status = StatusFailed
			t.errMsg = err.Error()
		default:
			t.result = res
		}
		o.finishLocked(t, status, err)
		ran := t.finishedAt.Sub(t.startedAt)
		closing := o.closed
		o.mu.Unlock()

		// Journal the terminal transition — except for jobs the shutdown
		// itself canceled, which must stay pending for the restart replay.
		if o.cfg.Journal != nil && !(closing && status == StatusCanceled) {
			o.cfg.Journal.ended(t.id, t.key, status)
		}

		o.runSeconds.Observe(ran.Seconds())
		switch status {
		case StatusDone:
			o.observeRun(res)
			o.log.Info("job done", "job_id", t.id, "key", t.key,
				"run_seconds", ran.Seconds(), "mips", runMIPS(res))
		case StatusFailed:
			o.log.Warn("job failed", "job_id", t.id, "key", t.key,
				"run_seconds", ran.Seconds(), "error", err)
		default:
			o.log.Info("job canceled", "job_id", t.id, "key", t.key,
				"while", "running", "run_seconds", ran.Seconds())
		}
	}
}

// observeRun feeds one executed run's phase breakdown into the
// simulator metrics.
func (o *Orchestrator) observeRun(res *JobResult) {
	if res == nil || res.Phases == nil {
		return
	}
	ph := res.Phases
	if ph.MIPS > 0 {
		o.runMIPS.Observe(ph.MIPS)
	}
	o.simSteps.Add(ph.SteppedCycles)
	o.simSkipped.Add(ph.FastForwardedCycles)
	o.simInstr.Add(ph.Instructions)
}

// runMIPS extracts a result's MIPS for logging (0 when unmeasured).
func runMIPS(res *JobResult) float64 {
	if res == nil || res.Phases == nil {
		return 0
	}
	return res.Phases.MIPS
}

// snapshot renders a task as a JobRecord; callers hold o.mu.
func (o *Orchestrator) snapshot(t *task) JobRecord {
	rec := JobRecord{
		ID:       t.id,
		Key:      t.key,
		Job:      t.job,
		Status:   t.status,
		Cached:   t.cached,
		Error:    t.errMsg,
		Timeline: t.timeline(),
		TraceID:  t.traceID,
		Worker:   t.worker,
	}
	if total := t.progTotal.Load(); total > 0 {
		p := float64(t.progDone.Load()) / float64(total)
		if p > 1 {
			p = 1
		}
		rec.Progress = p
	}
	if t.status == StatusDone {
		rec.Progress = 1
		rec.Result = t.result
	}
	return rec
}

// timeline renders the task's lifecycle history. Durations of phases
// still in progress accrue up to now: a queued job reports its current
// wait, a running job its current run time.
func (t *task) timeline() Timeline {
	tl := Timeline{SubmittedAt: t.submittedAt}
	if !t.startedAt.IsZero() {
		at := t.startedAt
		tl.StartedAt = &at
		tl.QueueSeconds = t.startedAt.Sub(t.submittedAt).Seconds()
	}
	if !t.finishedAt.IsZero() {
		at := t.finishedAt
		tl.FinishedAt = &at
		if !t.startedAt.IsZero() {
			tl.RunSeconds = t.finishedAt.Sub(t.startedAt).Seconds()
		} else {
			// Never ran: canceled while queued, or a cache hit.
			tl.QueueSeconds = t.finishedAt.Sub(t.submittedAt).Seconds()
		}
		return tl
	}
	switch {
	case t.status == StatusQueued:
		//lnuca:allow(determinism) live queue duration for status reporting, not result content
		tl.QueueSeconds = time.Since(t.submittedAt).Seconds()
	case t.status == StatusRunning:
		//lnuca:allow(determinism) live run duration for status reporting, not result content
		tl.RunSeconds = time.Since(t.startedAt).Seconds()
	}
	return tl
}
