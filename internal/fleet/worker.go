package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
	"repro/internal/trace"
)

// WorkerConfig tunes a fleet worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name identifies this worker in coordinator logs and the
	// active-worker gauge (default: "worker").
	Name string
	// Client performs the HTTP calls (default: a client with a 30s
	// timeout).
	Client *http.Client
	// Run executes one leased job (default: orchestrator.Engine.Do over
	// Cache and Traces — get-or-simulate, the way every in-process caller
	// gets a result). Tests inject stubs here.
	Run orchestrator.RunFunc
	// Cache memoizes this worker's runs and its mix jobs' baselines
	// (default: a fresh memory-only cache): a leased key it already holds
	// is served from it, not simulated again. Results still flow back to
	// the coordinator through the lease protocol, not this cache.
	Cache *orchestrator.Cache
	// Traces is the worker-local trace store; recorded streams a leased
	// job names are fetched from the coordinator on a local miss
	// (default: a fresh memory-only store).
	Traces *trace.Store
	// PollInterval is the idle delay between lease polls (default 100ms).
	PollInterval time.Duration
	// DrainGrace is how long a shutdown (Run's ctx canceled) lets an
	// in-flight job keep running — heartbeats included — before the run
	// is canceled and the lease explicitly released back to the
	// coordinator. 0 releases immediately; either way the coordinator
	// is told, instead of the lease zombieing until the reaper.
	DrainGrace time.Duration
	// Logger receives worker lifecycle events (default: discard).
	Logger *slog.Logger
	// Registry, when set, exports the lnuca_fleet_worker_* metrics.
	Registry *obs.Registry
	// Faults, when armed, drives the worker-execution injection points
	// (worker_crash, worker_stall). HTTP faults are injected by wrapping
	// Client.Transport with faultinject.Transport instead.
	Faults *faultinject.Injector
}

// Worker is a pull-based fleet execution node: it polls the coordinator
// for leased jobs, gets each result through the same engine as a local
// run, heartbeats while running, and pushes the result back.
// Workers hold no durable state the fleet depends on — killing one
// mid-job only costs a lease timeout and a retry elsewhere.
type Worker struct {
	cfg WorkerConfig

	jobs         *obs.Counter
	failures     *obs.Counter
	pollErrors   *obs.Counter
	traceFetches *obs.Counter
	busy         *obs.Gauge

	// idleSince marks when this worker last went idle; the next lease's
	// lnuca.worker.leasewait span stretches from here to the grant.
	// Touched only by the single Run loop goroutine.
	idleSince time.Time
}

// NewWorker builds a worker; call Run to start the pull loop.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Cache == nil {
		cfg.Cache = orchestrator.NewCache(0, "")
	}
	if cfg.Traces == nil {
		cfg.Traces = trace.NewStore("")
	}
	if cfg.Run == nil {
		engine := orchestrator.NewEngine(cfg.Cache, cfg.Traces)
		cfg.Run = func(ctx context.Context, j orchestrator.Job, progress func(done, total uint64)) (*orchestrator.JobResult, error) {
			res, _, err := engine.Do(ctx, j, progress)
			return res, err
		}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	cfg.Coordinator = strings.TrimRight(cfg.Coordinator, "/")
	w := &Worker{cfg: cfg}
	if reg := cfg.Registry; reg != nil {
		w.jobs = reg.Counter("lnuca_fleet_worker_jobs_total",
			"Leased jobs this worker finished (result or error pushed).")
		w.failures = reg.Counter("lnuca_fleet_worker_failures_total",
			"Leased jobs this worker completed with an error.")
		w.pollErrors = reg.Counter("lnuca_fleet_worker_poll_errors_total",
			"Lease polls that failed (coordinator unreachable or bad response).")
		w.traceFetches = reg.Counter("lnuca_fleet_worker_trace_fetches_total",
			"Traces fetched from the coordinator on a local store miss.")
		w.busy = reg.Gauge("lnuca_fleet_worker_busy",
			"1 while this worker is executing a leased job.")
	}
	return w
}

// Run pulls and executes jobs until ctx is canceled. A coordinator that
// is down is not fatal — the worker keeps polling, so fleet pieces can
// start in any order.
func (w *Worker) Run(ctx context.Context) error {
	w.cfg.Logger.Info("fleet worker started", "worker", w.cfg.Name,
		"coordinator", w.cfg.Coordinator, "poll_interval", w.cfg.PollInterval)
	w.idleSince = time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := w.poll(ctx)
		switch {
		case err != nil:
			w.pollErrors.Inc()
			w.cfg.Logger.Warn("lease poll failed", "worker", w.cfg.Name, "error", err)
			w.sleep(ctx, w.cfg.PollInterval)
		case lease == nil:
			w.sleep(ctx, w.cfg.PollInterval)
		default:
			w.execute(ctx, lease)
			w.idleSince = time.Now()
		}
	}
}

// sleep waits d or until ctx cancels.
func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// poll asks the coordinator for a lease; (nil, nil) means no work.
func (w *Worker) poll(ctx context.Context) (*LeaseResponse, error) {
	var lease LeaseResponse
	status, err := w.post(ctx, PathLease, LeaseRequest{Worker: w.cfg.Name}, &lease)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		return &lease, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("lease: unexpected status %d", status)
	}
}

// execute runs one leased job end to end: reconstruct and verify the
// job from its lnuca-run-v1 request, resolve any trace it names, run it
// under a heartbeat, and push the outcome.
func (w *Worker) execute(ctx context.Context, lease *LeaseResponse) {
	w.busy.Set(1)
	defer w.busy.Set(0)
	log := w.cfg.Logger.With("worker", w.cfg.Name, "lease_id", lease.LeaseID,
		"fleet_id", lease.JobID, "key", lease.Key)
	log.Info("lease accepted", "attempt", lease.Attempt)

	// Per-lease tracer: the worker's spans join the dispatching job's
	// trace through the lease's traceparent, collect locally, and ship
	// back piggybacked on the completion. Without a traceparent the
	// tracer mints a fresh trace — the spans still reach the
	// coordinator, just unstitched from a dispatch. rctx derives from
	// context.Background(), so it carries trace values but no poll-loop
	// cancellation.
	col := &tracez.Collector{}
	tr := tracez.New(col)
	root, rctx := tr.Start(tracez.Extract(context.Background(), lease.Traceparent), "lnuca.worker.execute")
	root.SetAttr("worker", w.cfg.Name)
	root.SetAttr("attempt", strconv.Itoa(lease.Attempt))
	if !w.idleSince.IsZero() {
		wait, _ := tracez.StartSpanAt(rctx, "lnuca.worker.leasewait", w.idleSince)
		wait.Finish()
	}
	finish := func(req CompleteRequest) {
		if req.Error != "" {
			root.SetError(errors.New(req.Error))
		}
		root.Finish()
		req.Spans = col.Drain()
		w.complete(rctx, log, lease, req)
	}

	job, err := lease.Request.Job()
	if err != nil {
		// The coordinator's request schema no longer parses here:
		// deterministic, no point retrying on another worker.
		finish(CompleteRequest{
			LeaseID: lease.LeaseID,
			Error:   fmt.Sprintf("worker rejects request: %v", err),
		})
		return
	}
	if got := job.Key(); got != lease.Key {
		// A key mismatch means coordinator and worker normalize the same
		// request differently (version skew). Executing would publish
		// under the wrong identity — refuse, terminally.
		finish(CompleteRequest{
			LeaseID: lease.LeaseID,
			Error:   fmt.Sprintf("content key mismatch: coordinator %s, worker %s — version skew?", lease.Key, got),
		})
		return
	}
	if job.Trace != "" && !w.cfg.Traces.Has(job.Trace) {
		fs, fctx := tracez.StartSpan(rctx, "lnuca.worker.tracefetch")
		err := w.fetchTrace(tracez.WithSpanContext(ctx, tracez.FromContext(fctx)), job.Trace)
		fs.SetError(err)
		fs.Finish()
		if err != nil {
			// Infrastructure: the trace exists on the coordinator (it
			// validated the submission); the fetch failing here is
			// transient and worth another attempt.
			finish(CompleteRequest{
				LeaseID:   lease.LeaseID,
				Error:     fmt.Sprintf("trace fetch: %v", err),
				Retryable: true,
			})
			return
		}
	}

	// The run and its heartbeats live on a context detached from the
	// poll-loop ctx (rctx has no cancellation), so a worker shutdown
	// drains instead of severing the job mid-flight: the watcher below
	// gives the run DrainGrace to finish (heartbeats keep flowing), then
	// cancels it, and the lease is explicitly released back to the
	// coordinator either way. The run inherits the lease's tracer, so
	// the simulator's phase spans land in this trace too.
	runCtx, cancelRun := context.WithCancel(rctx)
	defer cancelRun()
	var draining bool
	execDone := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-execDone:
		case <-ctx.Done():
			draining = true
			if g := w.cfg.DrainGrace; g > 0 {
				log.Info("worker draining; letting job finish", "grace", g)
				t := time.NewTimer(g)
				select {
				case <-execDone:
				case <-t.C:
				}
				t.Stop()
			}
			cancelRun()
		}
	}()
	var done, total atomic.Uint64
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go w.heartbeatLoop(runCtx, cancelRun, lease, &done, &total, hbStop, hbDone)

	res, runErr := w.cfg.Run(runCtx, job, func(d, t uint64) {
		done.Store(d)
		total.Store(t)
	})
	close(execDone)
	<-watchDone
	close(hbStop)
	<-hbDone

	// Worker-execution injection points. A "crashed" worker abandons the
	// lease silently — the coordinator's reaper requeues it after the
	// TTL. A "stalled" one sleeps past the TTL and then completes
	// anyway, exercising the late-completion (410) path.
	if out := w.cfg.Faults.At(faultinject.PointWorkerCrash); out.Fired {
		log.Warn("fault injected: worker crash — abandoning lease", "point", string(out.Point))
		return
	}
	if out := w.cfg.Faults.At(faultinject.PointWorkerStall); out.Fired {
		d := out.Delay
		if d <= 0 {
			d = time.Duration(2 * lease.HeartbeatSeconds * float64(time.Second))
		}
		log.Warn("fault injected: worker stall past lease TTL", "point", string(out.Point), "stall", d)
		w.sleep(context.Background(), d)
	}

	req := CompleteRequest{LeaseID: lease.LeaseID}
	switch {
	case runErr == nil:
		req.Result = res
	case errors.Is(runErr, context.Canceled):
		req.Error = runErr.Error()
		req.Retryable = true
		// A drain-canceled run is a healthy hand-back: the coordinator
		// refunds the attempt and requeues immediately. When the
		// coordinator itself canceled or requeued the job, it drops this
		// completion (or answers 410) regardless, so the flag is inert.
		req.Released = draining
	default:
		// The simulator is deterministic: this error would reproduce on
		// any worker. Terminal.
		req.Error = runErr.Error()
	}
	finish(req)
}

// heartbeatLoop keeps the lease alive at a third of its TTL, forwarding
// progress, until stop closes. A cancel signal or a 410 (the lease was
// requeued away from us) aborts the run.
func (w *Worker) heartbeatLoop(ctx context.Context, cancelRun context.CancelFunc,
	lease *LeaseResponse, done, total *atomic.Uint64, stop <-chan struct{}, finished chan<- struct{}) {
	defer close(finished)
	interval := time.Duration(lease.HeartbeatSeconds / 3 * float64(time.Second))
	if interval <= 0 {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
			var resp HeartbeatResponse
			status, err := w.post(ctx, PathHeartbeat, HeartbeatRequest{
				LeaseID: lease.LeaseID,
				Done:    done.Load(),
				Total:   total.Load(),
			}, &resp)
			switch {
			case err != nil:
				// Transient; the lease tolerates a few missed beats.
				w.cfg.Logger.Warn("heartbeat failed", "lease_id", lease.LeaseID, "error", err)
			case status == http.StatusGone:
				w.cfg.Logger.Warn("lease lost — aborting run", "lease_id", lease.LeaseID)
				cancelRun()
				return
			case resp.Cancel:
				w.cfg.Logger.Info("coordinator canceled job", "lease_id", lease.LeaseID)
				cancelRun()
				return
			}
		}
	}
}

// complete pushes the job outcome, retrying briefly: the result of a
// minutes-long simulation is worth more than one TCP handshake. A 410
// means the lease moved on without us — nothing left to do.
//
// Delivery is detached from the poll loop: ctx is the lease's trace
// context (values only, rooted in context.Background()), so a worker
// shutting down can still hand its lease back (or deliver a finished
// result) — a canceled ctx here is exactly how leases used to zombie
// until the reaper.
func (w *Worker) complete(ctx context.Context, log *slog.Logger, lease *LeaseResponse, req CompleteRequest) {
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	w.jobs.Inc()
	if req.Error != "" {
		w.failures.Inc()
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			w.sleep(ctx, 500*time.Millisecond)
		}
		status, err := w.post(ctx, PathComplete, req, nil)
		if err != nil {
			lastErr = err
			continue
		}
		switch status {
		case http.StatusOK:
			log.Info("lease completed", "failed", req.Error != "")
			return
		case http.StatusGone:
			log.Warn("completion arrived late; job was requeued")
			return
		default:
			lastErr = fmt.Errorf("complete: unexpected status %d", status)
		}
	}
	log.Warn("could not deliver completion; lease will expire and requeue", "error", lastErr)
}

// fetchTrace pulls a recorded stream from the coordinator into the
// local store, verifying its content hash on ingest.
func (w *Worker) fetchTrace(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.cfg.Coordinator+PathTraces+id, nil)
	if err != nil {
		return err
	}
	if h := tracez.Inject(ctx); h != "" {
		req.Header.Set(tracez.HeaderName, h)
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("trace %s: status %d: %s", id, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	hdr, err := w.cfg.Traces.PutBytes(data)
	if err != nil {
		return err
	}
	if hdr.ID != id {
		return fmt.Errorf("trace %s: coordinator served content %s", id, hdr.ID)
	}
	w.traceFetches.Inc()
	w.cfg.Logger.Info("trace fetched", "trace", id, "worker", w.cfg.Name)
	return nil
}

// post sends one JSON request and decodes the response into out (when
// non-nil and the status carries a body worth decoding).
func (w *Worker) post(ctx context.Context, path string, body, out interface{}) (int, error) {
	data, err := orchestrator.AppendJSON(nil, body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the lease's trace on heartbeats and completions, so an
	// injected worker_http fault is attributed to the affected trace.
	if h := tracez.Inject(ctx); h != "" {
		req.Header.Set(tracez.HeaderName, h)
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, nil
}
