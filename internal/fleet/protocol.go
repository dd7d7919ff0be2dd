// Package fleet distributes the orchestrator's job execution across
// worker processes: the orchestrator keeps the job queue, the result
// cache and the trace store, a coordinator leases the jobs its pool
// dispatches, and stateless workers pull them over HTTP, get each
// result the way a local run does (orchestrator.Engine.Do) and push it
// back by content hash.
//
// The coordinator plugs into the orchestrator as its Config.Run
// (Coordinator.Dispatch), so every invariant the single-process daemon
// provides — singleflight coalescing, content-addressed caching,
// balanced lifecycle counters, byte-identical job-key (KeySchema) cache
// entries — holds unchanged when execution is remote. The orchestrator
// worker pool becomes the dispatch-concurrency bound; each in-process
// worker blocks while its job runs on a fleet worker somewhere else.
package fleet

import (
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
)

// Lease-protocol routes, mounted next to the orchestrator API. Workers
// are clients of these three POST endpoints plus the trace fetch.
const (
	PathLease     = "/fleet/v1/lease"
	PathHeartbeat = "/fleet/v1/heartbeat"
	PathComplete  = "/fleet/v1/complete"
	PathTraces    = "/fleet/v1/traces/"
)

// LeaseRequest asks the coordinator for one job. Worker is a
// self-reported name used for logs and the active-worker gauge; it
// carries no trust.
//
// WaitMS asks the coordinator to hold the poll, for up to that many
// milliseconds (capped at maxLeaseWait), while it has nothing to grant:
// the answer comes as soon as a job becomes leasable, and is a 204 only
// once the hold ends empty. Zero answers at once. A worker sends its
// PollInterval, so an idle worker always has one poll in the coordinator
// and starts a dispatched job without waiting out a sleep.
type LeaseRequest struct {
	Worker string `json:"worker"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

// LeaseResponse grants one job under a lease. The worker must
// heartbeat before HeartbeatSeconds elapses or the coordinator requeues
// the job for someone else; a late Complete is answered 410.
//
// The job travels as its declarative lnuca-run-v1 request — the same
// schema every other entry path uses — plus the coordinator's expected
// content key, which the worker verifies after normalizing.
type LeaseResponse struct {
	LeaseID          string               `json:"lease_id"`
	JobID            string               `json:"job_id"`
	Key              string               `json:"key"`
	Request          orchestrator.Request `json:"request"`
	Attempt          int                  `json:"attempt"`
	HeartbeatSeconds float64              `json:"heartbeat_seconds"`
	// Traceparent propagates the dispatching job's trace context to the
	// worker, so the spans it emits while executing join the same trace
	// as the coordinator's dispatch span. Empty when tracing is off.
	Traceparent string `json:"traceparent,omitempty"`
}

// HeartbeatRequest keeps a lease alive and forwards execution progress
// (committed instruction counts, surfaced verbatim in job polling).
type HeartbeatRequest struct {
	LeaseID string `json:"lease_id"`
	Done    uint64 `json:"done"`
	Total   uint64 `json:"total"`
}

// HeartbeatResponse carries the coordinator's cancellation signal: when
// Cancel is set the submitter gave up on the job and the worker should
// abort the run.
type HeartbeatResponse struct {
	Cancel bool `json:"cancel"`
}

// CompleteRequest finishes a lease, with either a result or an error.
// Retryable distinguishes infrastructure failures (a trace fetch that
// timed out — requeue with backoff) from deterministic simulation
// errors, which would fail identically on any worker and are terminal
// immediately.
//
// Released marks an explicit, healthy hand-back: a worker draining on
// SIGTERM could not finish the run and returns the lease instead of
// letting it zombie until the reaper. The coordinator refunds the
// attempt and requeues immediately (no backoff) — neither the worker
// nor the job did anything wrong.
type CompleteRequest struct {
	LeaseID   string                  `json:"lease_id"`
	Result    *orchestrator.JobResult `json:"result,omitempty"`
	Error     string                  `json:"error,omitempty"`
	Retryable bool                    `json:"retryable,omitempty"`
	Released  bool                    `json:"released,omitempty"`
	// Spans are the worker-side spans of this execution (lease wait,
	// trace fetch, run phases), shipped back piggybacked on the
	// completion so the coordinator's flight recorder holds the whole
	// distributed trace. The coordinator validates each span and drops
	// malformed ones; results are never rejected over telemetry.
	Spans []tracez.Span `json:"spans,omitempty"`
}
