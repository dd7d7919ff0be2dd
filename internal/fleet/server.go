package fleet

import (
	"net/http"
	"strings"
	"time"

	"repro/internal/orchestrator"
)

// maxLeaseWait caps how long the coordinator holds one empty lease poll,
// whatever wait_ms asks: under the worker's default 30s HTTP timeout,
// and a bound on how long a held poll can keep an http.Server's
// Shutdown waiting.
const maxLeaseWait = 10 * time.Second

// Handler exposes the coordinator's lease protocol as an http.Handler.
// lnucad mounts it next to the orchestrator API on the same listener,
// so one address serves both the public job API and the worker fleet.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(PathComplete, c.handleComplete)
	mux.HandleFunc(PathTraces, c.handleTraceFetch)
	return mux
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !orchestrator.DecodeJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		orchestrator.WriteError(w, http.StatusBadRequest, "lease request names no worker")
		return
	}
	if req.WaitMS < 0 {
		orchestrator.WriteError(w, http.StatusBadRequest, "bad wait_ms %d", req.WaitMS)
		return
	}
	// The hold ends early when the worker goes away: its request's
	// context ends with the connection.
	wait := time.Duration(min(req.WaitMS, maxLeaseWait.Milliseconds())) * time.Millisecond
	resp := c.Lease(r.Context(), req.Worker, wait)
	if resp == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	orchestrator.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !orchestrator.DecodeJSON(w, r, &req) {
		return
	}
	cancel, ok := c.Heartbeat(req.LeaseID, req.Done, req.Total)
	if !ok {
		orchestrator.WriteError(w, http.StatusGone, "lease %s is no longer held — abort the run", req.LeaseID)
		return
	}
	orchestrator.WriteJSON(w, http.StatusOK, HeartbeatResponse{Cancel: cancel})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !orchestrator.DecodeJSON(w, r, &req) {
		return
	}
	if !c.Complete(req) {
		orchestrator.WriteError(w, http.StatusGone, "lease %s is no longer held — the job was requeued", req.LeaseID)
		return
	}
	orchestrator.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleTraceFetch serves a stored trace's raw lnuca-trace-v1 frame to
// a worker whose local store misses the hash a leased job names.
func (c *Coordinator) handleTraceFetch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		orchestrator.WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, PathTraces)
	if id == "" || strings.Contains(id, "/") {
		orchestrator.WriteError(w, http.StatusNotFound, "bad trace path %q", r.URL.Path)
		return
	}
	tr, err := c.cfg.Traces.Get(id)
	if err != nil {
		orchestrator.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	data, err := tr.Encode()
	if err != nil {
		orchestrator.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// RouteLabel forwards to orchestrator.RouteLabel, the one route
// normalizer, which labels the /fleet/v1/* routes too.
func RouteLabel(r *http.Request) string { return orchestrator.RouteLabel(r) }
