package orchestrator

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/workload"
)

// Server exposes an orchestrator as the lnucad HTTP JSON API:
//
//	POST   /v1/jobs        submit one job
//	GET    /v1/jobs        list jobs (?status=queued|running|done|failed|canceled)
//	GET    /v1/jobs/{id}   poll one job (result inlined when done)
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	POST   /v1/sweeps      submit a benchmark x hierarchy matrix
//	GET    /v1/sweeps/{id} aggregated sweep status (?since=<cursor>: only the records changed since)
//	GET    /v1/sweeps/{id}/progress  per-point progress, ETA, stragglers
//	POST   /v1/traces      upload a recorded lnuca-trace-v1 stream
//	GET    /v1/traces      list stored traces
//	GET    /v1/traces/{id} one stored trace's provenance header
//	GET    /v1/traces/{jobid}/spans  the job's distributed trace
//	POST   /v1/spans       ingest client-side spans into the recorder
//	GET    /v1/results     direct cache lookup by job content
//	GET    /v1/benchmarks  the synthetic SPEC CPU2006 catalog
//	GET    /healthz        liveness + build info + uptime
//	GET    /metrics        JSON snapshot, or Prometheus text on request
//	GET    /debug/tracez   flight-recorder HTML summary (tracing on)
type Server struct {
	orch  *Orchestrator
	mux   *http.ServeMux
	build obs.BuildInfo
	limit *rateLimiter // nil = unlimited
}

// NewServer wraps an orchestrator in its HTTP API.
func NewServer(o *Orchestrator) *Server {
	s := &Server{orch: o, mux: http.NewServeMux(), build: obs.Build()}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/v1/sweeps", s.handleSweeps)
	s.mux.HandleFunc("/v1/sweeps/", s.handleSweepByID)
	s.mux.HandleFunc("/v1/traces", s.handleTraces)
	s.mux.HandleFunc("/v1/traces/", s.handleTraceByID)
	s.mux.HandleFunc("/v1/results", s.handleResults)
	s.mux.HandleFunc("/v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("/v1/spans", s.handleSpans)
	if fr := o.Flight(); fr != nil {
		s.mux.Handle("/debug/tracez", fr.Handler())
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SetSubmitLimit installs a per-client token-bucket rate limit on the
// submit endpoints (POST /v1/jobs and /v1/sweeps): each client address
// refills at rps submissions per second up to burst. Zero or negative
// rps removes the limit. Reads (polling, metrics) are never limited.
func (s *Server) SetSubmitLimit(rps float64, burst int) {
	if rps <= 0 {
		s.limit = nil
		return
	}
	s.limit = newRateLimiter(rps, burst)
}

// throttleSubmit enforces the per-client submit limit; it reports
// whether the request was rejected (response already written).
func (s *Server) throttleSubmit(w http.ResponseWriter, r *http.Request) bool {
	if s.limit == nil || r.Method != http.MethodPost {
		return false
	}
	client := r.RemoteAddr
	if host, _, err := net.SplitHostPort(client); err == nil {
		client = host
	}
	//lnuca:allow(determinism) rate limiting is wall-clock behavior by definition; never result content
	ok, wait := s.limit.allow(client, time.Now())
	if ok {
		return false
	}
	writeThrottled(w, wait, "rate limit exceeded for %s — retry after %.1fs", client, wait.Seconds())
	return true
}

// writeThrottled answers 429 with a Retry-After hint, the backpressure
// contract Client's retry loop honors.
func writeThrottled(w http.ResponseWriter, wait time.Duration, format string, args ...interface{}) {
	secs := int(wait/time.Second) + 1 // round up; Retry-After takes whole seconds
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteError(w, http.StatusTooManyRequests, format, args...)
}

// WriteJSON, WriteError and DecodeJSON are exported for the fleet's lease
// routes, which lnucad mounts next to this API.
//
// WriteJSON sends what json.NewEncoder(w).Encode(v) would, finished before
// the status line is: a v that does not encode is a 500, not code with an
// empty body.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	buf := bodies.Get().(*[]byte)
	defer bodies.Put(buf)
	body, err := AppendJSON((*buf)[:0], v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding the response: %v", err)
		return
	}
	body = append(body, '\n')
	*buf = body // grown to this body's size, for the next
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // the client went away; nobody is left to tell
}

// bodies recycles response buffers, as encoding/json's encoder did its own: a
// body is finished, written and done with inside WriteJSON.
var bodies = sync.Pool{New: func() interface{} { return new([]byte) }}

func WriteError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxJSONBody bounds a JSON request body; the largest the API moves, a
// completion carrying an 8-core LN+DN mix result, is 11 KB.
const maxJSONBody = 1 << 20

// DecodeJSON is the one way a JSON POST body enters the service: false
// means it answered 405 (not a POST), 413 (over maxJSONBody) or 400.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJSONBody))
	if err == nil {
		err = Unmarshal(data, v)
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		WriteError(w, http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", r.URL.Path, maxJSONBody)
	case err != nil:
		WriteError(w, http.StatusBadRequest, "bad %s body: %v", r.URL.Path, err)
	}
	return err == nil
}

// submitFailed answers a Submit error — 429 for a full queue, 503 for a
// degraded store, 422 otherwise — and reports whether there was one.
func submitFailed(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrQueueFull):
		writeThrottled(w, time.Second, "%v", err)
	case errors.Is(err, ErrDegraded):
		// Read-only while the journal/store cannot make accepted work
		// durable. Not the client's fault, and disks do not heal in a
		// second: a longer hint than the 429's.
		w.Header().Set("Retry-After", "10")
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		WriteError(w, http.StatusUnprocessableEntity, "%v", err)
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]interface{}{
		"status":         "ok",
		"version":        s.build.Version,
		"commit":         s.build.Commit,
		"go_version":     s.build.GoVersion,
		"key_schema":     KeySchema,
		"uptime_seconds": s.orch.Uptime().Seconds(),
	})
}

// handleMetrics serves the orchestrator's operational counters. The
// JSON snapshot is the default (and what Client.Metrics decodes);
// Prometheus text is selected by ?format=prometheus or an Accept header
// naming text/plain or openmetrics — which is what an actual Prometheus
// scraper sends.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if wantsPrometheus(r) {
		reg := s.orch.Registry()
		if reg == nil {
			WriteError(w, http.StatusNotAcceptable, "no metrics registry configured; only the JSON snapshot is available")
			return
		}
		w.Header().Set("Content-Type", obs.ContentType)
		_ = reg.WritePrometheus(w)
		return
	}
	WriteJSON(w, http.StatusOK, s.orch.Metrics())
}

// wantsPrometheus decides the /metrics representation: an explicit
// ?format= always wins, otherwise the Accept header chooses. A browser
// or bare curl (Accept: */*) keeps getting JSON.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// RouteLabel collapses a request path onto the API's route patterns so
// per-job IDs never explode metric label cardinality; unknown paths all
// share the "other" label. It is the route normalizer lnucad passes to
// obs.Middleware.
func RouteLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/healthz", "/metrics", "/v1/jobs", "/v1/sweeps", "/v1/traces",
		"/v1/results", "/v1/benchmarks", "/v1/spans", "/debug/tracez":
		return p
	// The fleet lease protocol mounts next to this API; its three POST
	// routes are fixed strings, and the trace fetch embeds a content
	// hash that must not become a label.
	case "/fleet/v1/lease", "/fleet/v1/heartbeat", "/fleet/v1/complete":
		return p
	}
	switch {
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case strings.HasPrefix(p, "/v1/sweeps/"):
		if strings.HasSuffix(p, "/progress") {
			return "/v1/sweeps/{id}/progress"
		}
		return "/v1/sweeps/{id}"
	case strings.HasPrefix(p, "/v1/traces/"):
		if strings.HasSuffix(p, "/spans") {
			return "/v1/traces/{id}/spans"
		}
		return "/v1/traces/{id}"
	case strings.HasPrefix(p, "/fleet/v1/traces/"):
		return "/fleet/v1/traces/{id}"
	case strings.HasPrefix(p, "/fleet/v1/"):
		return "/fleet/v1/other"
	}
	return "other"
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		if s.throttleSubmit(w, r) {
			return
		}
		// The body is the declarative run schema (lnuca-run-v1) — the
		// same Request the library and CLI front-ends build, so any
		// entry path yields the same content key.
		var req Request
		if !DecodeJSON(w, r, &req) {
			return
		}
		job, err := req.parse()
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// A submitted traceparent ties this job's spans to the caller's
		// trace (Client sends one); absent, the job roots a fresh trace.
		rec, err := s.orch.SubmitCtx(tracez.Extract(r.Context(), r.Header.Get(tracez.HeaderName)), job)
		if submitFailed(w, err) {
			return
		}
		code := http.StatusAccepted
		if rec.Status == StatusDone {
			code = http.StatusOK // served straight from the cache
		}
		WriteJSON(w, code, rec)
	case http.MethodGet:
		status := Status(r.URL.Query().Get("status"))
		WriteJSON(w, http.StatusOK, struct {
			Jobs []JobRecord `json:"jobs"`
		}{s.orch.List(status)})
	default:
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		WriteError(w, http.StatusNotFound, "bad job path %q", r.URL.Path)
		return
	}
	switch r.Method {
	case http.MethodGet:
		rec, ok := s.orch.Get(id)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		WriteJSON(w, http.StatusOK, rec)
	case http.MethodDelete:
		rec, ok := s.orch.Cancel(id)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		WriteJSON(w, http.StatusOK, rec)
	default:
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if s.throttleSubmit(w, r) || !DecodeJSON(w, r, &req) {
		return
	}
	jobs, err := req.Jobs()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Cells accepted before a full queue or a degraded store rejected the
	// rest keep running; a retried sweep re-dedups them (coalesce, cache).
	sid, recs, err := s.orch.SubmitSweep(jobs)
	if submitFailed(w, err) {
		return
	}
	WriteJSON(w, http.StatusAccepted, SweepSubmission{ID: sid, Jobs: recs})
}

// SweepSubmission is the answer to POST /v1/sweeps: the sweep's ID and its
// cells' records.
type SweepSubmission struct {
	ID   string      `json:"id"`
	Jobs []JobRecord `json:"jobs"`
}

func (s *Server) handleSweepByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/sweeps/")
	if sid, ok := strings.CutSuffix(id, "/progress"); ok {
		prog, ok := s.orch.Progress(sid)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown sweep %q", sid)
			return
		}
		WriteJSON(w, http.StatusOK, prog)
		return
	}
	// since is the cursor of an earlier answer: absent, every record.
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		var err error
		if since, err = strconv.ParseUint(v, 10, 64); err != nil {
			WriteError(w, http.StatusBadRequest, "bad since: %v", err)
			return
		}
	}
	st, ok := s.orch.SweepSince(id, since)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

// maxTraceBytes bounds a trace upload; the full-mode window encodes to
// well under a megabyte, so this is orders of magnitude of headroom.
const maxTraceBytes = 64 << 20

// handleTraces ingests (POST, body = raw lnuca-trace-v1 bytes) and
// lists (GET) the content-addressed trace store. An upload answers with
// the decoded provenance header — including the content hash to name in
// Request.Trace — and re-uploading the same trace is idempotent.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		data, err := io.ReadAll(io.LimitReader(r.Body, maxTraceBytes+1))
		if err != nil {
			WriteError(w, http.StatusBadRequest, "reading trace body: %v", err)
			return
		}
		if len(data) > maxTraceBytes {
			WriteError(w, http.StatusRequestEntityTooLarge, "trace exceeds %d bytes", maxTraceBytes)
			return
		}
		hdr, err := s.orch.Traces().PutBytes(data)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		WriteJSON(w, http.StatusCreated, hdr)
	case http.MethodGet:
		WriteJSON(w, http.StatusOK, map[string]interface{}{
			"traces": s.orch.Traces().List(),
		})
	default:
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// handleTraceByID answers GET /v1/traces/{id} with the stored trace's
// provenance header, and GET /v1/traces/{jobid}/spans with the job's
// distributed trace from the flight recorder.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	if jid, ok := strings.CutSuffix(id, "/spans"); ok {
		s.serveSpans(w, jid)
		return
	}
	if id == "" || strings.Contains(id, "/") {
		WriteError(w, http.StatusNotFound, "bad trace path %q", r.URL.Path)
		return
	}
	hdr, err := s.orch.Traces().Header(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, hdr)
}

// serveSpans resolves a job ID (or, as a fallback, a raw 32-hex trace
// ID) to its recorded spans and correlated lifecycle events.
func (s *Server) serveSpans(w http.ResponseWriter, id string) {
	fr := s.orch.Flight()
	if fr == nil {
		WriteError(w, http.StatusNotFound, "tracing is not enabled on this daemon")
		return
	}
	jobID := ""
	traceID, ok := s.orch.TraceIDOf(id)
	if ok {
		jobID = id
	} else {
		// Not a live job ID; accept a raw trace ID so traces of pruned
		// jobs stay reachable while the recorder retains them.
		traceID = id
	}
	if traceID == "" {
		WriteError(w, http.StatusNotFound, "job %q has no recorded trace", id)
		return
	}
	spans := fr.Spans(traceID)
	if len(spans) == 0 {
		WriteError(w, http.StatusNotFound, "no spans recorded for %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]interface{}{
		"job_id":   jobID,
		"trace_id": traceID,
		"spans":    spans,
		"events":   fr.Events(traceID),
	})
}

// maxSpanBatch bounds one POST /v1/spans body; a client ships a handful
// of spans per job, so this is generous.
const maxSpanBatch = 512

// handleSpans ingests client-produced spans (the submit-side view of a
// distributed trace) into the daemon's span recorder. Spans are
// validated and must carry lnuca.-dotted names; the endpoint is
// telemetry-only and never affects job state.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Spans []tracez.Span `json:"spans"`
	}
	if !DecodeJSON(w, r, &body) {
		return
	}
	rec := s.orch.SpanRecorder()
	if rec == nil {
		WriteError(w, http.StatusNotFound, "tracing is not enabled on this daemon")
		return
	}
	if len(body.Spans) > maxSpanBatch {
		WriteError(w, http.StatusRequestEntityTooLarge, "span batch exceeds %d spans", maxSpanBatch)
		return
	}
	accepted := 0
	for _, sp := range body.Spans {
		if err := tracez.ValidSpan(sp); err != nil {
			continue
		}
		if !strings.HasPrefix(sp.Name, "lnuca.") {
			continue
		}
		rec.Record(sp)
		accepted++
	}
	WriteJSON(w, http.StatusAccepted, map[string]interface{}{
		"accepted": accepted,
		"dropped":  len(body.Spans) - accepted,
	})
}

// handleResults answers GET /v1/results?hierarchy=&levels=&benchmark=
// &cores=&mix=&trace=&mode=&warmup=&measure=&seed= straight from the result
// cache: 200 with the result on a hit, 404 on a miss. It never enqueues
// work.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	q := r.URL.Query()
	req := Request{
		Hierarchy: q.Get("hierarchy"),
		Benchmark: q.Get("benchmark"),
		Mix:       q.Get("mix"),
		Trace:     q.Get("trace"),
		Mode:      q.Get("mode"),
	}
	var err error
	for _, f := range []struct {
		name string
		dst  *uint64
	}{{"warmup", &req.Warmup}, {"measure", &req.Measure}, {"seed", &req.Seed}} {
		if v := q.Get(f.name); v != "" {
			if *f.dst, err = strconv.ParseUint(v, 10, 64); err != nil {
				WriteError(w, http.StatusBadRequest, "bad %s: %v", f.name, err)
				return
			}
		}
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"levels", &req.Levels}, {"cores", &req.Cores}} {
		if v := q.Get(f.name); v != "" {
			if *f.dst, err = strconv.Atoi(v); err != nil {
				WriteError(w, http.StatusBadRequest, "bad %s: %v", f.name, err)
				return
			}
		}
	}
	job, err := req.parse()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, ok, err := s.orch.Lookup(job)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ok {
		WriteError(w, http.StatusNotFound, "no cached result for this configuration")
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]interface{}{
		"benchmarks": workload.Names(),
		"mixes":      append(workload.MixNames(), workload.RandomMixName),
	})
}
