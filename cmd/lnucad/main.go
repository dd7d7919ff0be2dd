// Command lnucad is the long-running experiment orchestration service: a
// bounded simulation worker pool, a content-addressed result cache, and
// the HTTP JSON API (POST /v1/jobs, POST /v1/sweeps, GET /metrics, ...)
// that front-ends submit Light NUCA experiments through. POST bodies are
// the declarative lnuca-run-v1 Request schema — exactly what
// lightnuca.Client marshals and the CLIs build from flags — so a run
// submitted over HTTP has the same content key as the same run executed
// in process.
//
//	lnucad -addr :8347 -workers 8 -cache /var/lib/lnuca/results
//
// With -cache, results persist across restarts and are shared with the
// -cache flags of lnucasweep/lnucasim and with lightnuca.Local: any run
// computed once is never recomputed.
//
// The content-addressed trace store (POST/GET /v1/traces; trace-replay
// jobs name entries by hash) lives next to the result cache: -traces
// names its directory explicitly, and defaults to <cache>/traces when
// -cache is set (in-memory otherwise).
//
// Distributed execution: -fleet turns the daemon into a fleet
// coordinator — jobs are dispatched over the /fleet/v1 lease protocol to
// pull-based workers instead of simulated in-process, while every API,
// cache and content-key behaviour stays identical. A worker is the same
// binary in -worker mode:
//
//	lnucad -fleet -addr :8347 -cache /var/lib/lnuca/results   # coordinator
//	lnucad -worker -coordinator http://coord:8347             # each worker
//
// The queue journal (-journal, defaulting to <cache>/journal.jsonl when
// -cache is set) records every submission and terminal transition; a
// restarted daemon replays the still-pending jobs, and the shared store
// makes already-computed points cache hits rather than re-simulations.
// -queue-cap bounds the queue (excess submissions are answered 429 +
// Retry-After) and -submit-rps/-submit-burst rate-limit submissions per
// client address.
//
// Robustness rehearsal: -chaos-seed arms the deterministic fault
// injector (DESIGN.md, "Failure model") on a daemon or worker — every
// fire is counted in lnuca_fault_injected_total{point}, and the seed
// alone reproduces the schedule. -drain-grace bounds how long a
// SIGTERMed worker lets its in-flight job finish before the lease is
// explicitly released back to the coordinator.
//
// Observability: every request is access-logged (structured, -log-format
// text|json at -log-level), GET /metrics serves Prometheus text to
// scrapers (JSON snapshot stays the default representation; fleet mode
// adds the lnuca_fleet_* series), GET /healthz reports build info and
// uptime, and -debug-addr starts a second, normally-off listener exposing
// net/http/pprof — keep it bound to localhost.
// -mutex-profile-fraction and -block-profile-rate turn on runtime
// contention sampling for that listener's mutex/block profiles.
//
// Distributed tracing is always on in daemon mode: every job grows a
// span tree (client submit → orchestrator queue/run → fleet dispatch →
// worker execution → simulation phases) held in a bounded in-memory
// flight recorder. GET /v1/traces/{jobid}/spans returns one job's tree
// with its correlated lease/fault events, GET /debug/tracez renders an
// HTML summary, GET /v1/sweeps/{id}/progress aggregates a sweep
// (per-point states, throughput, ETA, stragglers, per-worker load), and
// -span-log appends every finished span as JSONL for offline analysis.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation workers (fleet mode: concurrent dispatches)")
	cacheDir := flag.String("cache", "", "result cache directory (empty = in-memory only)")
	cacheCap := flag.Int("cache-entries", 4096, "in-memory result cache capacity")
	traceDir := flag.String("traces", "", "trace store directory (default: <cache>/traces when -cache is set, else in-memory)")
	journalPath := flag.String("journal", "", "queue journal file for restart resumability (default: <cache>/journal.jsonl when -cache is set; empty = no journal)")
	queueCap := flag.Int("queue-cap", 0, "bound on queued jobs; past it submissions get 429 + Retry-After (0 = unbounded)")
	submitRPS := flag.Float64("submit-rps", 0, "per-client submit rate limit, requests/second (0 = unlimited)")
	submitBurst := flag.Int("submit-burst", 8, "per-client submit burst on top of -submit-rps")
	fleetMode := flag.Bool("fleet", false, "coordinate a worker fleet: dispatch jobs over /fleet/v1 instead of simulating in-process")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "fleet mode: how long a silent worker holds a lease before its job is requeued")
	maxAttempts := flag.Int("max-attempts", 3, "fleet mode: lease attempts per job before it fails terminally")
	workerMode := flag.Bool("worker", false, "run as a fleet worker: pull jobs from -coordinator instead of serving the API")
	coordinatorURL := flag.String("coordinator", "", "coordinator base URL for -worker mode, e.g. http://host:8347")
	workerName := flag.String("worker-name", "", "worker name reported to the coordinator (default: hostname)")
	drainGrace := flag.Duration("drain-grace", 10*time.Second, "worker mode: how long SIGTERM lets an in-flight job finish before its lease is released back to the coordinator")
	chaosSeed := flag.Int64("chaos-seed", 0, "DEV ONLY: arm deterministic fault injection from this seed — injected HTTP/store/worker faults, counted in lnuca_fault_injected_total (0 = off)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	debugAddr := flag.String("debug-addr", "", "listen address for the pprof debug server (empty = disabled)")
	spanLog := flag.String("span-log", "", "append every finished span as one JSON line to this file (empty = disabled)")
	mutexFraction := flag.Int("mutex-profile-fraction", 0, "sample 1/n of mutex contention events for the -debug-addr mutex profile (0 = off)")
	blockRate := flag.Int("block-profile-rate", 0, "sample blocking events lasting >= n nanoseconds for the -debug-addr block profile (0 = off)")
	version := flag.Bool("version", false, "print version information and exit")
	flag.Parse()

	build := obs.Build()
	if *version {
		fmt.Println("lnucad", build, "key_schema", orchestrator.KeySchema)
		return
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lnucad:", err)
		os.Exit(2)
	}
	log, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lnucad:", err)
		os.Exit(2)
	}

	if *traceDir == "" && *cacheDir != "" {
		*traceDir = filepath.Join(*cacheDir, "traces")
	}

	// Contention sampling feeds the pprof mutex/block profiles; the
	// fractions apply process-wide, so a worker can be sampled too.
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	if *workerMode {
		if *coordinatorURL == "" {
			fmt.Fprintln(os.Stderr, "lnucad: -worker requires -coordinator")
			os.Exit(2)
		}
		os.Exit(runWorker(log, *coordinatorURL, *workerName, *cacheDir, *cacheCap, *traceDir, *drainGrace, *chaosSeed))
	}

	if *journalPath == "" && *cacheDir != "" {
		*journalPath = filepath.Join(*cacheDir, "journal.jsonl")
	}
	var journal *orchestrator.Journal
	if *journalPath != "" {
		journal, err = orchestrator.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lnucad:", err)
			os.Exit(1)
		}
	}

	registry := obs.NewRegistry()

	// The flight recorder (bounded ring of recent traces + lease/fault
	// events) is always on: its memory is capped and spans cost nothing
	// on the simulation hot path. -span-log adds a durable JSONL feed.
	flight := tracez.NewFlightRecorder(0, 0, 0)
	var spanSink tracez.Recorder = flight
	var spanLogFile *os.File
	if *spanLog != "" {
		f, ferr := os.OpenFile(*spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "lnucad: -span-log:", ferr)
			os.Exit(1)
		}
		spanLogFile = f
		spanSink = tracez.Tee(flight, tracez.NewJSONLRecorder(f))
	}
	spanCounts := registry.CounterVec("lnuca_spans_recorded_total",
		"Finished spans landed in the daemon's recorder, by span name.", "name")
	spanRec := tracez.RecorderFunc(func(s tracez.Span) {
		spanCounts.With(s.Name).Inc()
		spanSink.Record(s)
	})
	registry.CounterFunc("lnuca_spans_dropped_total",
		"Spans the flight recorder dropped at its per-trace bound (the JSONL log still sees them).",
		func() uint64 { return uint64(flight.DroppedSpans()) })
	registry.GaugeFunc("lnuca_trace_buffer_traces",
		"Traces currently retained in the flight recorder's ring.",
		flight.RetainedTraces)
	tracer := tracez.New(spanRec)

	traces := trace.NewStore(*traceDir)
	cache := orchestrator.NewCache(*cacheCap, *cacheDir)
	var faults *faultinject.Injector
	if *chaosSeed != 0 {
		faults = armChaos(*chaosSeed, false, registry, flight)
		cache.SetFaults(faults)
		traces.SetFaults(faults)
		if journal != nil {
			journal.SetFaults(faults)
		}
		log.Warn("CHAOS MODE armed: deterministic fault injection is live on this daemon",
			"seed", *chaosSeed, "schedule", faults.Describe())
	}
	ocfg := orchestrator.Config{
		Workers:  *workers,
		Cache:    cache,
		Traces:   traces,
		Logger:   log,
		Registry: registry,
		QueueCap: *queueCap,
		Journal:  journal,
		Tracer:   tracer,
		Flight:   flight,
	}
	var coord *fleet.Coordinator
	if *fleetMode {
		coord = fleet.NewCoordinator(fleet.Config{
			LeaseTTL:    *leaseTTL,
			MaxAttempts: *maxAttempts,
			Traces:      traces,
			Logger:      log,
			Registry:    registry,
			Events:      flight,
			Spans:       tracer.Recorder(),
		})
		ocfg.Run = coord.Dispatch
	}
	orch := orchestrator.New(ocfg)

	// A restarted daemon owes its clients the queue it died with:
	// resubmit every journaled job that never reached a terminal state.
	// Points the previous incarnation finished are cache hits here —
	// nothing stored is ever re-simulated.
	if journal != nil {
		pending := journal.Pending()
		for _, req := range pending {
			job, jerr := req.Job()
			if jerr != nil {
				log.Warn("journal holds an unparseable request; dropping", "error", jerr)
				continue
			}
			if _, serr := orch.Submit(job); serr != nil {
				log.Warn("journal replay submission rejected", "error", serr)
			}
		}
		if len(pending) > 0 {
			log.Info("journal replayed", "pending_jobs", len(pending), "journal", journal.Path())
		}
	}

	api := orchestrator.NewServer(orch)
	if *submitRPS > 0 {
		api.SetSubmitLimit(*submitRPS, *submitBurst)
	}
	var handler http.Handler = api
	if coord != nil {
		mux := http.NewServeMux()
		mux.Handle("/fleet/v1/", coord.Handler())
		mux.Handle("/", api)
		handler = mux
	}
	if faults != nil {
		handler = faultinject.Middleware(handler, faults, faultinject.PointCoordHTTP)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: obs.Middleware(handler, log, registry, orchestrator.RouteLabel),
	}

	errc := make(chan error, 2)
	go func() { errc <- srv.ListenAndServe() }()
	var debug *http.Server
	if *debugAddr != "" {
		// The pprof listener gets its own mux (the handlers register
		// endpoints like /debug/pprof/heap that must never ride on the
		// public API address) and is only started on explicit request.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debug = &http.Server{Addr: *debugAddr, Handler: mux}
		go func() { errc <- debug.ListenAndServe() }()
		log.Info("pprof debug server enabled", "addr", *debugAddr)
	}
	log.Info("lnucad serving",
		"addr", *addr,
		"workers", *workers,
		"mode", modeLabel(*fleetMode),
		"cache", cacheLabel(*cacheDir),
		"traces", cacheLabel(*traceDir),
		"journal", cacheLabel(*journalPath),
		"span_log", cacheLabel(*spanLog),
		"schema", orchestrator.RequestSchema,
		"version", build.Version,
		"commit", build.Commit,
	)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	exitCode := 0
	select {
	case err := <-errc:
		log.Error("listener failed", "error", err)
		exitCode = 1
	case s := <-sigc:
		log.Info("signal received, draining", "signal", s.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if debug != nil {
		_ = debug.Shutdown(ctx)
	}
	// Orchestrator first — its shutdown unwinds every blocked fleet
	// dispatch — then the coordinator's reaper, then the journal (whose
	// still-pending entries are exactly what the next start replays).
	orch.Close()
	if coord != nil {
		coord.Close()
	}
	if journal != nil {
		_ = journal.Close()
	}
	if spanLogFile != nil {
		_ = spanLogFile.Close()
	}
	os.Exit(exitCode)
}

// runWorker is -worker mode: a pull-based fleet execution node. It holds
// no API listener and no durable state the fleet depends on — killing a
// worker mid-job only costs the coordinator a lease timeout and a retry
// elsewhere. Its cache and trace store (worker-local, optionally
// disk-backed via -cache / -traces) only save it work: results flow back
// over the lease protocol, and the coordinator's store is the one that
// counts.
func runWorker(log *slog.Logger, coordinator, name, cacheDir string, cacheCap int, traceDir string, drainGrace time.Duration, chaosSeed int64) int {
	if name == "" {
		if host, err := os.Hostname(); err == nil {
			name = host
		} else {
			name = "worker"
		}
	}
	var faults *faultinject.Injector
	var client *http.Client
	if chaosSeed != 0 {
		faults = armChaos(chaosSeed, true, nil, nil)
		client = &http.Client{
			Timeout:   30 * time.Second,
			Transport: &faultinject.Transport{Injector: faults, Point: faultinject.PointWorkerHTTP},
		}
		log.Warn("CHAOS MODE armed: deterministic fault injection is live on this worker",
			"seed", chaosSeed, "schedule", faults.Describe())
	}
	w := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: coordinator,
		Name:        name,
		Client:      client,
		Cache:       orchestrator.NewCache(cacheCap, cacheDir),
		Traces:      trace.NewStore(traceDir),
		DrainGrace:  drainGrace,
		Logger:      log,
		Faults:      faults,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && err != context.Canceled {
		log.Warn("worker stopped", "error", err)
		return 1
	}
	log.Info("worker drained", "worker", name)
	return 0
}

// armChaos builds the -chaos-seed injector: documented moderate-rate
// plans for either the daemon (store + server-side HTTP faults) or a
// worker (execution + transport faults). Every fire is counted in
// lnuca_fault_injected_total{point} when a registry is given, and
// recorded as a "fault" event — carrying the affected trace ID when the
// faulted operation had one — when a flight recorder is given. The seed
// alone reproduces the schedule.
func armChaos(seed int64, worker bool, reg *obs.Registry, flight *tracez.FlightRecorder) *faultinject.Injector {
	in := faultinject.New(seed)
	if worker {
		in.Enable(faultinject.PointWorkerCrash, faultinject.Plan{Rate: 0.05})
		in.Enable(faultinject.PointWorkerStall, faultinject.Plan{Rate: 0.02})
		in.Enable(faultinject.PointWorkerHTTP, faultinject.Plan{Rate: 0.05})
	} else {
		in.Enable(faultinject.PointCacheWrite, faultinject.Plan{Rate: 0.05, Tear: 0.5})
		in.Enable(faultinject.PointTraceWrite, faultinject.Plan{Rate: 0.05, Tear: 0.5})
		in.Enable(faultinject.PointJournalAppend, faultinject.Plan{Rate: 0.02})
		in.Enable(faultinject.PointCoordHTTP, faultinject.Plan{Rate: 0.03, Status: http.StatusServiceUnavailable})
	}
	if reg != nil {
		vec := reg.CounterVec("lnuca_fault_injected_total",
			"Faults fired by the -chaos-seed injector, by injection point.", "point")
		in.OnFire(func(p faultinject.Point) { vec.With(string(p)).Inc() })
	}
	if flight != nil {
		in.OnEvent(func(e faultinject.Event) { flight.Event("fault", e.TraceID, string(e.Point)) })
	}
	return in
}

func modeLabel(fleetMode bool) string {
	if fleetMode {
		return "fleet-coordinator"
	}
	return "local"
}

func cacheLabel(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
