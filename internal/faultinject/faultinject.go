// Package faultinject is a dependency-free, deterministically seeded
// fault injector. Code under test declares named injection points
// (Point constants below); a test or the `lnucad -chaos-seed` dev flag
// arms a subset of them with Plans; the instrumented code asks
// At(point) what — if anything — should go wrong right now.
//
// Determinism is the whole design: every point draws its fire/no-fire
// decisions from its own RNG stream derived from (seed, point name), so
// a schedule is fully reproduced by its seed alone, independent of how
// many other points are armed or in what order goroutines interleave
// their calls to *different* points. (Concurrent calls to the *same*
// point serialize on the injector's mutex, so a point's decision
// sequence is a deterministic function of its call count.)
//
// A nil *Injector is valid and never fires, so production code can
// thread one through unconditionally and pay a single nil check when
// chaos is off.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracez"
)

// Point names one injection site. The catalog is small and closed on
// purpose: chaos schedules, metrics labels
// (lnuca_fault_injected_total{point}) and DESIGN.md's failure-model
// table all key off these exact strings.
type Point string

// The injection-point catalog. Layer 1: HTTP transports. Layer 2: disk
// stores. Layer 3: worker execution.
const (
	// PointClientHTTP sits in lightnuca.Client's transport: connection
	// refused, 5xx/429 bursts, mid-body drops, induced latency.
	PointClientHTTP Point = "client_http"
	// PointWorkerHTTP sits in the fleet worker's transport to the
	// coordinator (lease/heartbeat/complete/trace-fetch).
	PointWorkerHTTP Point = "worker_http"
	// PointCoordHTTP is server-side middleware on the coordinator /
	// lnucad mux: injected 5xx before the real handler runs.
	PointCoordHTTP Point = "coord_http"

	// PointCacheWrite fires inside the result cache's atomic persist:
	// torn temp file, failed fsync, failed rename — debris left behind.
	PointCacheWrite Point = "cache_write"
	// PointCacheRead fires on result-cache disk loads: short reads and
	// read errors.
	PointCacheRead Point = "cache_read"
	// PointTraceWrite fires inside the trace store's atomic persist.
	PointTraceWrite Point = "trace_write"
	// PointJournalAppend fires on queue-journal appends: the write
	// errors out, as a full or failing disk would.
	PointJournalAppend Point = "journal_append"

	// PointWorkerCrash crashes a worker after the simulation ran but
	// before /fleet/v1/complete is attempted: the lease zombies until
	// the reaper requeues it.
	PointWorkerCrash Point = "worker_crash"
	// PointWorkerStall stalls a worker past its lease TTL (heartbeats
	// stopped) and then lets it attempt completion — the coordinator
	// must answer 410 and the requeued attempt must win.
	PointWorkerStall Point = "worker_stall"
)

// ErrInjected is the default error carried by a fired Outcome whose
// Plan did not specify one. Instrumented code wraps it, so tests can
// errors.Is their way to "this failure was mine".
var ErrInjected = errors.New("faultinject: injected fault")

// Plan arms one injection point. Zero-valued fields mean "no such
// effect"; a Plan with no effect fields at all injects a bare
// ErrInjected when it fires.
type Plan struct {
	// Rate is the per-call fire probability in [0,1]. Rate >= 1 fires
	// on every eligible call.
	Rate float64
	// After skips the first After calls before any can fire — lets a
	// schedule poison steady state rather than startup.
	After int
	// MaxFires caps total fires; 0 means unlimited. Bounded schedules
	// keep chaos runs convergent (MaxAttempts budgets, degraded-mode
	// thresholds).
	MaxFires int

	// Err is the injected error; nil defaults to ErrInjected where an
	// error is the effect.
	Err error
	// Tear, in (0,1], makes disk-write points persist only the first
	// Tear fraction of the payload to the temp file and then fail —
	// a crash between write and rename, debris included.
	Tear float64
	// Delay is injected latency, applied before any other effect.
	Delay time.Duration
	// Status, for HTTP points, synthesizes a response with this status
	// code instead of performing the request.
	Status int
	// RetryAfter, in seconds, sets a Retry-After header on a
	// synthesized Status response (e.g. 429 backpressure).
	RetryAfter int
	// DropBody, for HTTP points, performs the request but severs the
	// response body mid-read — a connection cut after headers.
	DropBody bool
	// AfterSend, for HTTP points, performs the request server-side but
	// reports a transport error to the caller — the ambiguous "did my
	// POST land?" failure that drives duplicate-completion paths.
	AfterSend bool
}

// Outcome is one injection decision. The zero Outcome (Fired false) is
// what unarmed or nil injectors return.
type Outcome struct {
	Point Point
	Fired bool

	Err        error
	Tear       float64
	Delay      time.Duration
	Status     int
	RetryAfter int
	DropBody   bool
	AfterSend  bool
}

// ErrOrDefault returns the planned error, or ErrInjected when the plan
// left it nil.
func (o Outcome) ErrOrDefault() error {
	if o.Err != nil {
		return o.Err
	}
	return ErrInjected
}

// Sleep applies the outcome's injected latency, honoring ctx. Returns
// early with the context error if the caller is canceled mid-delay.
func (o Outcome) Sleep(ctx context.Context) error {
	if o.Delay <= 0 {
		return nil
	}
	t := time.NewTimer(o.Delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// pointState is one armed point's plan plus its private RNG stream and
// call/fire counters.
type pointState struct {
	plan  Plan
	rng   *rand.Rand
	calls uint64
	fires uint64
}

// Event is one fault firing, correlated to the distributed trace whose
// request tripped it. TraceID is "" when the site had no trace context
// (background probes, untraced submissions) — the firing is still
// recorded, just unattributed.
type Event struct {
	Point   Point
	TraceID string
}

// Injector owns the armed points. Safe for concurrent use; a nil
// *Injector is inert.
type Injector struct {
	seed    int64
	mu      sync.Mutex
	points  map[Point]*pointState
	onFire  func(Point)
	onEvent func(Event)
}

// New returns an injector whose every decision derives from seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, points: make(map[Point]*pointState)}
}

// Seed returns the seed the injector was built from — log it loudly;
// it is the whole reproduction recipe.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Enable arms point with plan, replacing any previous plan and
// resetting the point's RNG stream and counters. The stream depends
// only on (seed, point), so two injectors built from the same seed and
// armed with the same plans make identical decision sequences.
func (in *Injector) Enable(p Point, plan Plan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points[p] = &pointState{
		plan: plan,
		rng:  rand.New(rand.NewSource(in.seed ^ int64(hashPoint(p)))),
	}
}

// Disable disarms point.
func (in *Injector) Disable(p Point) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.points, p)
}

// OnFire registers fn to be called (outside the injector's lock) each
// time any point fires — the hook Count uses for
// lnuca_fault_injected_total{point}.
func (in *Injector) OnFire(fn func(Point)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.onFire = fn
}

// Count registers lnuca_fault_injected_total{point} on reg and counts
// every fire in it (through OnFire).
func (in *Injector) Count(reg *obs.Registry) {
	vec := reg.CounterVec("lnuca_fault_injected_total",
		"Faults fired by the -chaos-seed injector, by injection point.", "point")
	in.OnFire(func(p Point) { vec.With(string(p)).Inc() })
}

// OnEvent registers fn to be called (outside the injector's lock) each
// time any point fires, carrying the trace ID of the request that
// tripped it when the call site knew one — the hook the flight recorder
// uses to correlate chaos with span trees. Both hooks fire on every
// event; OnFire remains for counters that only need the point.
func (in *Injector) OnEvent(fn func(Event)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.onEvent = fn
}

// At asks whether point should fail right now. Nil-safe: a nil
// injector, or an unarmed point, returns the zero (unfired) Outcome.
func (in *Injector) At(p Point) Outcome {
	return in.AtE(p, "")
}

// AtE is At with the trace ID of the operation being injected into,
// forwarded to the OnEvent hook. Instrumented sites that hold a trace
// context (HTTP transports and middlewares, the result cache's persist
// path) call this; sites with none call At.
func (in *Injector) AtE(p Point, traceID string) Outcome {
	if in == nil {
		return Outcome{Point: p}
	}
	in.mu.Lock()
	st := in.points[p]
	if st == nil {
		in.mu.Unlock()
		return Outcome{Point: p}
	}
	st.calls++
	fire := st.calls > uint64(st.plan.After) &&
		(st.plan.MaxFires == 0 || st.fires < uint64(st.plan.MaxFires)) &&
		(st.plan.Rate >= 1 || st.rng.Float64() < st.plan.Rate)
	var hook func(Point)
	var eventHook func(Event)
	if fire {
		st.fires++
		hook = in.onFire
		eventHook = in.onEvent
	}
	plan := st.plan
	in.mu.Unlock()
	if !fire {
		return Outcome{Point: p}
	}
	if hook != nil {
		hook(p)
	}
	if eventHook != nil {
		eventHook(Event{Point: p, TraceID: traceID})
	}
	return Outcome{
		Point:      p,
		Fired:      true,
		Err:        plan.Err,
		Tear:       plan.Tear,
		Delay:      plan.Delay,
		Status:     plan.Status,
		RetryAfter: plan.RetryAfter,
		DropBody:   plan.DropBody,
		AfterSend:  plan.AfterSend,
	}
}

// Calls returns how many times point has been consulted.
func (in *Injector) Calls(p Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.points[p]; st != nil {
		return st.calls
	}
	return 0
}

// Fires returns how many times point has fired.
func (in *Injector) Fires(p Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.points[p]; st != nil {
		return st.fires
	}
	return 0
}

// TotalFires sums fires across all points.
func (in *Injector) TotalFires() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for _, st := range in.points {
		n += st.fires
	}
	return n
}

// Describe renders the armed plans, sorted by point, for logs and
// failure artifacts. Two injectors with equal Describe() and equal
// seeds run identical schedules.
func (in *Injector) Describe() string {
	if in == nil {
		return "faultinject: off"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.points))
	for p := range in.points {
		names = append(names, string(p))
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", in.seed)
	for _, name := range names {
		st := in.points[Point(name)]
		fmt.Fprintf(&b, " %s{rate=%g", name, st.plan.Rate)
		if st.plan.After > 0 {
			fmt.Fprintf(&b, " after=%d", st.plan.After)
		}
		if st.plan.MaxFires > 0 {
			fmt.Fprintf(&b, " max=%d", st.plan.MaxFires)
		}
		if st.plan.Tear > 0 {
			fmt.Fprintf(&b, " tear=%g", st.plan.Tear)
		}
		if st.plan.Delay > 0 {
			fmt.Fprintf(&b, " delay=%s", st.plan.Delay)
		}
		if st.plan.Status != 0 {
			fmt.Fprintf(&b, " status=%d", st.plan.Status)
		}
		if st.plan.RetryAfter != 0 {
			fmt.Fprintf(&b, " retry_after=%ds", st.plan.RetryAfter)
		}
		if st.plan.DropBody {
			b.WriteString(" drop_body")
		}
		if st.plan.AfterSend {
			b.WriteString(" after_send")
		}
		b.WriteString("}")
	}
	return b.String()
}

// Points returns the armed points, sorted — the label set a metrics
// exporter should expect.
func (in *Injector) Points() []Point {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Point, 0, len(in.points))
	for p := range in.points {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// hashPoint folds a point name into the seed-stream offset. FNV-1a:
// stable across runs, platforms and Go versions, unlike maphash.
func hashPoint(p Point) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p))
	return h.Sum64()
}

// Middleware wraps next with server-side HTTP fault injection: when
// point fires, the request is answered with the planned status (503 if
// the plan named none) and the real handler never runs. Firings are
// attributed to the incoming request's traceparent trace ID, so a
// chaos-injected 503 shows up as an event on the trace it failed.
func Middleware(next http.Handler, in *Injector, p Point) http.Handler {
	if in == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var traceID string
		if sc, ok := tracez.ParseHeader(r.Header.Get(tracez.HeaderName)); ok {
			traceID = sc.TraceID
		}
		out := in.AtE(p, traceID)
		out.Sleep(r.Context())
		if !out.Fired {
			next.ServeHTTP(w, r)
			return
		}
		status := out.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		if out.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", out.RetryAfter))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":"injected fault at %s"}`+"\n", p)
	})
}
