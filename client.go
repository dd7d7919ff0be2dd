package lightnuca

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
)

// Client is the HTTP Runner: it submits Requests to a running lnucad
// service and polls them to completion. Because the service decodes the
// same lnuca-run-v1 schema the Client marshals, a Request submitted here
// resolves to exactly the content key a Local runner computes, and the
// two share the service's result cache.
//
// Beyond Runner, Client exposes the full job lifecycle (Submit / Job /
// Cancel / Wait with streaming progress), sweep fan-out (SubmitSweep /
// WaitSweep), direct cache lookups, and the service's catalog and
// metrics endpoints.
type Client struct {
	// BaseURL is the service root, e.g. "http://localhost:8347".
	BaseURL string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// PollInterval spaces Wait's and WaitSweep's status polls (default
	// 50ms). WaitSweep asks the service to hold each poll that long while
	// the sweep runs, so it sees the sweep end when it ends; against a
	// service that answers at once it still polls once per PollInterval.
	PollInterval time.Duration

	// MaxRetries bounds how many times an idempotent request (a GET —
	// polls, lookups, catalog reads) is retried after a transient
	// failure: a connection error, a 5xx, or a 429 from the service's
	// backpressure layer. Delays between attempts follow a jittered
	// exponential backoff, and a 429's Retry-After header overrides the
	// computed delay. Zero means the default (3); negative disables
	// retries. Mutating requests are never retried.
	MaxRetries int
	// RetryBaseDelay seeds the backoff (default 100ms); RetryMaxDelay
	// caps it (default 2s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// Tracer, when set, opens lnuca.client.* spans around Submit and
	// SubmitSweep and propagates their context to the service as a
	// traceparent header, so the daemon's job spans parent under the
	// caller's. Nil disables client-side tracing entirely. Prefer
	// EnableTracing, which also ships finished spans to the daemon.
	Tracer *tracez.Tracer

	// spanCol collects this client's finished spans for best-effort
	// delivery to POST /v1/spans; set by EnableTracing, nil when the
	// caller owns the Tracer's recorder.
	spanCol *tracez.Collector

	// sleepFn overrides the backoff sleep. Tests inject it to assert the
	// chosen delays (e.g. a 429's Retry-After) without spending
	// wall-clock time; nil means a real timer.
	sleepFn func(ctx context.Context, d time.Duration) error
}

// NewClient returns a Client for a lnucad address; a bare "host:port"
// is promoted to "http://host:port".
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{BaseURL: strings.TrimSuffix(addr, "/")}
}

// EnableTracing turns on client-side distributed tracing: Submit and
// SubmitSweep open spans, every request carries the ambient trace as a
// traceparent header, and finished client spans are shipped to the
// daemon's POST /v1/spans after each submission (best-effort — span
// delivery never fails an API call). Returns c for chaining.
func (c *Client) EnableTracing() *Client {
	col := &tracez.Collector{}
	c.spanCol = col
	c.Tracer = tracez.New(col)
	return c
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) pollInterval() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 50 * time.Millisecond
}

// do runs one JSON round trip. A non-2xx status decodes the service's
// {"error": ...} envelope into the returned error.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	contentType := ""
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("lightnuca: marshal %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(b)
		contentType = "application/json"
	}
	return c.doRaw(ctx, method, path, body, contentType, out)
}

// doRaw is the transport under do: an arbitrary request body (nil for
// none), the service's error envelope decoded into APIError on non-2xx,
// and the response decoded into out when non-nil. Idempotent requests
// (body-less GETs) are retried on transient failures per MaxRetries.
func (c *Client) doRaw(ctx context.Context, method, path string, body io.Reader, contentType string, out interface{}) error {
	retries := c.maxRetries()
	if method != http.MethodGet || body != nil {
		retries = 0 // only idempotent, replayable requests retry
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = c.doOnce(ctx, method, path, body, contentType, out)
		if err == nil || attempt >= retries || !transient(err) {
			return err
		}
		if werr := c.backoffWait(ctx, attempt, err); werr != nil {
			return err
		}
	}
}

// doOnce is a single request round trip.
func (c *Client) doOnce(ctx context.Context, method, path string, body io.Reader, contentType string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("lightnuca: %s %s: %w", method, path, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if h := tracez.Inject(ctx); h != "" {
		req.Header.Set(tracez.HeaderName, h)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("lightnuca: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		apiErr := &APIError{Status: resp.StatusCode, Message: e.Error}
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs >= 0 {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	// The body is read once, into a buffer of the length the service states
	// (it sends a finished body; ReadFrom wants MinRead spare to see the
	// EOF), and decoded where it lies.
	var data bytes.Buffer
	data.Grow(int(min(max(resp.ContentLength, 0), 16<<20)) + bytes.MinRead)
	if _, err = data.ReadFrom(resp.Body); err == nil {
		err = orchestrator.Unmarshal(data.Bytes(), out)
	}
	if err != nil {
		return fmt.Errorf("lightnuca: decode %s %s: %w", method, path, err)
	}
	return nil
}

func (c *Client) maxRetries() int {
	switch {
	case c.MaxRetries > 0:
		return c.MaxRetries
	case c.MaxRetries < 0:
		return 0
	}
	return 3
}

// transient reports whether err is worth retrying: a transport-level
// failure (connection refused, reset, timeout — anything that never
// produced a response) or a service answer that promises the condition
// will pass (429 backpressure, 5xx).
func transient(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusTooManyRequests || apiErr.Status >= 500
	}
	// No decoded response: treat context cancellation as final, every
	// other transport failure as transient.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// backoffWait sleeps out the delay before retry number attempt+1: a
// jittered exponential backoff, overridden by the server's Retry-After
// on a 429. Returns non-nil when ctx ends the wait early.
func (c *Client) backoffWait(ctx context.Context, attempt int, cause error) error {
	base := c.RetryBaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := c.RetryMaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	delay := base << attempt
	if delay > max || delay <= 0 {
		delay = max
	}
	// Full jitter in [delay/2, delay): desynchronizes a fleet of
	// clients hammering a recovering service.
	delay = delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
	var apiErr *APIError
	if errors.As(cause, &apiErr) && apiErr.RetryAfter > 0 {
		delay = apiErr.RetryAfter
	}
	if c.sleepFn != nil {
		return c.sleepFn(ctx, delay)
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// APIError is a non-2xx service response.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the parsed Retry-After header of a 429, zero when
	// absent — the delay the service asks a backing-off client to hold.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("lightnuca: lnucad returned %d: %s", e.Status, e.Message)
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the service's operational counters.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// Benchmarks fetches the workload catalog and the named mixes the
// service accepts.
func (c *Client) Benchmarks(ctx context.Context) (benchmarks, mixes []string, err error) {
	var out struct {
		Benchmarks []string `json:"benchmarks"`
		Mixes      []string `json:"mixes"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/benchmarks", nil, &out); err != nil {
		return nil, nil, err
	}
	return out.Benchmarks, out.Mixes, nil
}

// UploadTrace posts framed lnuca-trace-v1 bytes (what Trace.Encode or a
// .lntrace file holds) to the service's content-addressed trace store
// and returns the decoded provenance header — its ID is what a
// Request.Trace replay names. Re-uploading the same trace is idempotent.
func (c *Client) UploadTrace(ctx context.Context, data []byte) (TraceInfo, error) {
	var hdr TraceInfo
	err := c.doRaw(ctx, http.MethodPost, "/v1/traces", bytes.NewReader(data), "application/octet-stream", &hdr)
	return hdr, err
}

// Traces lists the provenance headers of every trace the service holds.
func (c *Client) Traces(ctx context.Context) ([]TraceInfo, error) {
	var out struct {
		Traces []TraceInfo `json:"traces"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/traces", nil, &out); err != nil {
		return nil, err
	}
	return out.Traces, nil
}

// TraceInfo fetches one stored trace's provenance header by content
// hash.
func (c *Client) TraceInfo(ctx context.Context, id string) (TraceInfo, error) {
	var hdr TraceInfo
	err := c.do(ctx, http.MethodGet, "/v1/traces/"+url.PathEscape(id), nil, &hdr)
	return hdr, err
}

// Submit posts one Request and returns its record immediately — Status
// is StatusDone when the service answered from its result cache.
func (c *Client) Submit(ctx context.Context, req Request) (JobRecord, error) {
	span, sctx := c.Tracer.Start(ctx, "lnuca.client.submit")
	if req.Benchmark != "" {
		span.SetAttr("benchmark", req.Benchmark)
	}
	var rec JobRecord
	err := c.do(sctx, http.MethodPost, "/v1/jobs", req, &rec)
	span.SetError(err)
	span.Finish()
	c.shipSpans(ctx)
	return rec, err
}

// shipSpans drains EnableTracing's collector to POST /v1/spans. Best
// effort: telemetry loss never surfaces as an API error.
func (c *Client) shipSpans(ctx context.Context) {
	if c.spanCol == nil {
		return
	}
	spans := c.spanCol.Drain()
	if len(spans) == 0 {
		return
	}
	_ = c.do(ctx, http.MethodPost, "/v1/spans", map[string]interface{}{"spans": spans}, nil)
}

// Job polls one submitted run by ID.
func (c *Client) Job(ctx context.Context, id string) (JobRecord, error) {
	var rec JobRecord
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &rec)
	return rec, err
}

// Cancel aborts a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (JobRecord, error) {
	var rec JobRecord
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &rec)
	return rec, err
}

// Wait polls a job until it reaches a terminal state, streaming every
// intermediate snapshot (with its Progress fraction) to onUpdate when
// non-nil. It returns the terminal record, or the context's error.
func (c *Client) Wait(ctx context.Context, id string, onUpdate func(JobRecord)) (JobRecord, error) {
	ticker := time.NewTicker(c.pollInterval())
	defer ticker.Stop()
	for {
		rec, err := c.Job(ctx, id)
		if err != nil {
			return JobRecord{}, err
		}
		if onUpdate != nil {
			onUpdate(rec)
		}
		if rec.Status.Terminal() {
			return rec, nil
		}
		select {
		case <-ctx.Done():
			return rec, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Run implements Runner: Submit then Wait, converting the terminal
// record. A failed or canceled job is an error, and so is a request with
// a machine that the service keyed otherwise: an lnucad older than the
// member drops it and would run the Table I machine.
func (c *Client) Run(ctx context.Context, req Request) (Result, error) {
	rec, err := c.Submit(ctx, req)
	if err != nil {
		return Result{}, err
	}
	if len(req.Machine) > 0 {
		if want, err := req.Key(); err != nil || rec.Key != want {
			return Result{}, fmt.Errorf("lightnuca: lnucad keyed job %s %s, not %s: it does not run machine %v (%v)", rec.ID, rec.Key, want, req.Machine, err)
		}
	}
	if !rec.Status.Terminal() {
		if rec, err = c.Wait(ctx, rec.ID, nil); err != nil {
			return Result{}, err
		}
	}
	return resultOfRecord(rec)
}

// Lookup consults the service's result cache by request content without
// enqueuing work: (result, true, nil) on a hit, (zero, false, nil) on a
// clean miss. GET /v1/results cannot name a machine: Run a request that
// has one, which a cached result answers as fast.
func (c *Client) Lookup(ctx context.Context, req Request) (Result, bool, error) {
	if len(req.Machine) > 0 {
		return Result{}, false, errors.New("lightnuca: Lookup cannot name a machine; Run the request instead")
	}
	key, err := req.Key()
	if err != nil {
		return Result{}, false, err
	}
	q := url.Values{}
	for k, v := range map[string]string{
		"hierarchy": req.Hierarchy, "benchmark": req.Benchmark, "mix": req.Mix, "trace": req.Trace, "mode": req.Mode,
		"levels": strconv.Itoa(req.Levels), "cores": strconv.Itoa(req.Cores), "warmup": strconv.FormatUint(req.Warmup, 10),
		"measure": strconv.FormatUint(req.Measure, 10), "seed": strconv.FormatUint(req.Seed, 10),
	} {
		if v != "" && v != "0" { // zero means the default, which the service applies too
			q.Set(k, v)
		}
	}
	var res orchestrator.JobResult
	err = c.do(ctx, http.MethodGet, "/v1/results?"+q.Encode(), nil, &res)
	if apiErr, ok := err.(*APIError); ok && apiErr.Status == http.StatusNotFound {
		return Result{}, false, nil
	}
	if err != nil {
		return Result{}, false, err
	}
	return resultFrom(key, &res, true), true, nil
}

// SweepSubmission is the service's answer to a sweep: its ID plus the
// per-cell records.
type SweepSubmission = orchestrator.SweepSubmission

// SubmitSweep fans a Sweep out on the service: one job per matrix cell,
// deduplicated and cache-served exactly as individual Submits would be.
func (c *Client) SubmitSweep(ctx context.Context, sweep Sweep) (SweepSubmission, error) {
	// The sweep span traces the submission round trip only: each cell
	// roots its own trace on the daemon (a thousand-point sweep sharing
	// one trace would be unreadable and would overflow any per-trace
	// span bound).
	span, sctx := c.Tracer.Start(ctx, "lnuca.client.sweep")
	var sub SweepSubmission
	err := c.do(sctx, http.MethodPost, "/v1/sweeps", sweep, &sub)
	span.SetError(err)
	span.Finish()
	c.shipSpans(ctx)
	return sub, err
}

// Sweep polls a sweep's aggregated status, every cell's record included.
func (c *Client) Sweep(ctx context.Context, id string) (SweepStatus, error) {
	return c.sweepSince(ctx, id, 0, 0)
}

// sweepSince fetches a sweep's status with only the records that changed
// after cursor since (0: all of them), held up to wait while the sweep
// runs.
func (c *Client) sweepSince(ctx context.Context, id string, since uint64, wait time.Duration) (SweepStatus, error) {
	q := url.Values{}
	if since > 0 {
		q.Set("since", strconv.FormatUint(since, 10))
	}
	if ms := wait.Milliseconds(); ms > 0 {
		q.Set("wait", strconv.FormatInt(ms, 10))
	}
	path := "/v1/sweeps/" + url.PathEscape(id)
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var st SweepStatus
	err := c.do(ctx, http.MethodGet, path, nil, &st)
	return st, err
}

// WaitSweep polls a sweep until every cell is terminal, streaming each
// aggregated snapshot to onUpdate when non-nil, and returns the last:
// every cell's record, in sweep order, with its result.
//
// Each poll names the cursor of the answer before it, so the service
// sends a record once per status transition instead of once per poll;
// WaitSweep merges those deltas, by job ID, into the records of its first
// answer (a cell the sweep lists twice is updated in both places), and a
// service that ignores the cursor and sends everything merges to the same
// snapshot. The counts in a snapshot are as of its poll; a live cell's
// progress and timeline are as of that cell's last transition —
// GET /v1/sweeps/{id}/progress is the live view.
//
// Each poll asks the service to hold it for PollInterval while the sweep
// runs (wait=), and the next starts no sooner than PollInterval after it
// began.
func (c *Client) WaitSweep(ctx context.Context, id string, onUpdate func(SweepStatus)) (SweepStatus, error) {
	interval := c.pollInterval()
	var merged SweepStatus
	var at map[string][]int // job ID -> its positions in merged.Jobs
	for {
		began := time.Now()
		st, err := c.sweepSince(ctx, id, merged.Cursor, interval)
		if err != nil {
			if ctx.Err() != nil {
				return merged, ctx.Err() // canceled while the poll was held
			}
			return SweepStatus{}, err
		}
		if at == nil {
			at = make(map[string][]int, len(st.Jobs))
			for i, rec := range st.Jobs {
				at[rec.ID] = append(at[rec.ID], i)
			}
		} else {
			for _, rec := range st.Jobs {
				for _, i := range at[rec.ID] {
					merged.Jobs[i] = rec
				}
			}
			st.Jobs = merged.Jobs
		}
		merged = st
		if onUpdate != nil {
			// A copy: the callback may keep it, the next merge writes Jobs.
			snap := merged
			snap.Jobs = append([]JobRecord(nil), merged.Jobs...)
			onUpdate(snap)
		}
		if merged.Done {
			return merged, nil
		}
		// A held poll has spent the interval already; a service that
		// ignores wait= answered at once.
		t := time.NewTimer(interval - time.Since(began))
		select {
		case <-ctx.Done():
			t.Stop()
			return merged, ctx.Err()
		case <-t.C:
		}
	}
}

// RunSweep submits a sweep and waits it to completion.
func (c *Client) RunSweep(ctx context.Context, sweep Sweep, onUpdate func(SweepStatus)) (SweepStatus, error) {
	sub, err := c.SubmitSweep(ctx, sweep)
	if err != nil {
		return SweepStatus{}, err
	}
	return c.WaitSweep(ctx, sub.ID, onUpdate)
}

// resultOfRecord converts a terminal job record into a Result.
func resultOfRecord(rec JobRecord) (Result, error) {
	switch rec.Status {
	case StatusDone:
		if rec.Result == nil {
			return Result{}, fmt.Errorf("lightnuca: job %s done without a result", rec.ID)
		}
		return resultFrom(rec.Key, rec.Result, rec.Cached), nil
	case StatusFailed:
		return Result{}, fmt.Errorf("lightnuca: job %s failed: %s", rec.ID, rec.Error)
	case StatusCanceled:
		return Result{}, fmt.Errorf("lightnuca: job %s canceled", rec.ID)
	default:
		return Result{}, fmt.Errorf("lightnuca: job %s not terminal (status %s)", rec.ID, rec.Status)
	}
}
