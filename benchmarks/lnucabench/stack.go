package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	lightnuca "repro"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
	"repro/internal/trace"
)

// fleetWorkers is the worker count of every sweep stack: one per core
// of the 2-core reference box, so load never exceeds the machine.
const fleetWorkers = 2

// stackOptions selects what a service stack is built with. The zero
// value plus a dir is what `lnucad -fleet -cache DIR` assembles.
type stackOptions struct {
	// dir holds the result store, the trace store and the journal.
	dir string
	// workers is the number of in-process fleet workers (0 for a stack
	// that only ever serves cached results).
	workers int
	// workerPoll is the workers' idle lease-poll interval (0 = the
	// production default, 100ms).
	workerPoll time.Duration
	// noTracing drops the tracer and the flight recorder lnucad always
	// runs with, to price them.
	noTracing bool
	// noJournal drops the queue journal, to price it.
	noJournal bool

	// The hooks below exist for the traced run and the micro-sections;
	// end-to-end metrics are measured with all of them nil.
	wrapDispatch  func(orchestrator.RunFunc) orchestrator.RunFunc
	workerRun     func(def orchestrator.RunFunc) orchestrator.RunFunc
	workerRoundTr func(http.RoundTripper) http.RoundTripper
	countSpan     func()
}

// stack is one in-process lnucad: registry, tracer + flight recorder,
// journal, disk cache, orchestrator, fleet coordinator and its HTTP
// API on a loopback listener, plus in-process pull workers and the one
// client connection the load generator uses.
type stack struct {
	dir      string
	url      string
	orch     *orchestrator.Orchestrator
	api      *orchestrator.Server
	coord    *fleet.Coordinator
	registry *obs.Registry
	journal  *orchestrator.Journal
	client   *lightnuca.Client

	srv         *http.Server
	served      chan struct{}
	clientConns *http.Transport
	workerConns *http.Transport
	stopWorkers context.CancelFunc
	workersDone sync.WaitGroup
}

func newStack(opt stackOptions) (*stack, error) {
	s := &stack{dir: opt.dir, registry: obs.NewRegistry(), served: make(chan struct{})}
	var err error
	if !opt.noJournal {
		if s.journal, err = orchestrator.OpenJournal(filepath.Join(opt.dir, "journal.jsonl")); err != nil {
			return nil, err
		}
	}
	traces := trace.NewStore(filepath.Join(opt.dir, "traces"))
	ocfg := orchestrator.Config{
		// Dispatch slots, not simulations: twice the worker count keeps
		// a job queued at the coordinator whenever a worker asks.
		Workers:  2 * fleetWorkers,
		Cache:    orchestrator.NewCache(0, opt.dir),
		Traces:   traces,
		Registry: s.registry,
		Journal:  s.journal,
	}
	ccfg := fleet.Config{Traces: traces, Registry: s.registry}
	if !opt.noTracing {
		flight := tracez.NewFlightRecorder(0, 0, 0)
		var rec tracez.Recorder = flight
		if opt.countSpan != nil {
			rec = tracez.RecorderFunc(func(sp tracez.Span) {
				opt.countSpan()
				flight.Record(sp)
			})
		}
		ocfg.Tracer = tracez.New(rec)
		ocfg.Flight = flight
		ccfg.Events = flight
		ccfg.Spans = rec
	}
	s.coord = fleet.NewCoordinator(ccfg)
	ocfg.Run = s.coord.Dispatch
	if opt.wrapDispatch != nil {
		ocfg.Run = opt.wrapDispatch(ocfg.Run)
	}
	s.orch = orchestrator.New(ocfg)
	s.api = orchestrator.NewServer(s.orch)

	mux := http.NewServeMux()
	mux.Handle("/fleet/v1/", s.coord.Handler())
	mux.Handle("/", s.api)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = &http.Server{Handler: obs.Middleware(mux, obs.Discard(), s.registry, fleet.RouteLabel)}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed at close
	}()
	s.url = "http://" + ln.Addr().String()

	s.clientConns = &http.Transport{}
	s.client = lightnuca.NewClient(s.url)
	s.client.HTTPClient = &http.Client{Transport: s.clientConns}
	// Sweep status is polled every 10ms, not the 50ms default: at ~0.7s
	// a sweep, a 50ms poll grid would quantize the wall it measures.
	s.client.PollInterval = 10 * time.Millisecond

	s.workerConns = &http.Transport{}
	var rt http.RoundTripper = s.workerConns
	if opt.workerRoundTr != nil {
		rt = opt.workerRoundTr(rt)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for i := 0; i < opt.workers; i++ {
		cache := orchestrator.NewCache(0, "")
		wtraces := trace.NewStore("")
		wcfg := fleet.WorkerConfig{
			Coordinator:  s.url,
			Name:         fmt.Sprintf("w%d", i),
			Client:       &http.Client{Transport: rt, Timeout: 30 * time.Second},
			Cache:        cache,
			Traces:       wtraces,
			PollInterval: opt.workerPoll,
		}
		if opt.workerRun != nil {
			wcfg.Run = opt.workerRun(orchestrator.SimRunWithTraces(cache, wtraces))
		}
		w := fleet.NewWorker(wcfg)
		s.workersDone.Add(1)
		go func() {
			defer s.workersDone.Done()
			_ = w.Run(ctx) // ends with ctx's error at close
		}()
	}
	return s, nil
}

// close tears the stack down and waits for every goroutine it started:
// the orchestrator first (unblocks every Dispatch), then the workers,
// the listener, the coordinator's reaper, the journal.
func (s *stack) close() {
	s.orch.Close()
	if s.stopWorkers != nil {
		s.stopWorkers()
		s.workersDone.Wait()
		s.workerConns.CloseIdleConnections()
	}
	if s.srv != nil {
		s.clientConns.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.srv.Shutdown(ctx) // on timeout the listener is closed anyway
		cancel()
		<-s.served
	}
	s.coord.Close()
	if s.journal != nil {
		_ = s.journal.Close() // nothing left to append
	}
}

// scrapeCounter reads one unlabeled counter from the stack's Prometheus
// rendering — the public way to the coordinator's lease counters.
func (s *stack) scrapeCounter(name string) (float64, error) {
	var b strings.Builder
	if err := s.registry.WritePrometheus(&b); err != nil {
		return 0, err
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not in scrape", name)
}
