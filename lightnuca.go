// Package lightnuca is the public API of the Light NUCA reproduction: a
// cycle-accurate Go model of the cache organization proposed by Suárez et
// al., "Light NUCA: a proposal for bridging the inter-cache latency gap"
// (DATE 2009), together with the paper's complete evaluation environment —
// conventional and D-NUCA baselines, an out-of-order core model, synthetic
// SPEC CPU2006-like workloads, CMP workload mixes over a shared LLC, and
// area/energy/timing models.
//
// # One schema, many entry paths
//
// Every run is described by the same declarative, versioned Request
// (schema lnuca-run-v1): hierarchy, L-NUCA levels, benchmark or
// cores+mix, window, seed. The CLIs build a Request from flags, the
// lnucad service decodes it from JSON, and library callers hand it to a
// Runner. All paths normalize into the same canonical job and the same
// job key (KeySchema), so a result computed through any front-end
// is a cache hit for every other.
//
// Two Runner implementations ship:
//
//   - Local simulates in process, optionally backed by the same on-disk
//     content-addressed result store lnucad and lnucasweep share;
//   - Client submits to a running lnucad over HTTP, with polling,
//     cancellation, sweep fan-out and streaming progress.
//
// A minimal session:
//
//	runner := &lightnuca.Local{}
//	res, err := runner.Run(ctx, lightnuca.Request{
//		Hierarchy: "ln+l3",
//		Benchmark: "482.sphinx3",
//	})
//	fmt.Printf("IPC %.3f over %d cycles\n", res.IPC, res.Cycles)
//
// A 4-core CMP mix against a running service:
//
//	client := lightnuca.NewClient("localhost:8347")
//	res, err := client.Run(ctx, lightnuca.Request{
//		Hierarchy: "ln+l3", Cores: 4, Mix: "memory", Seed: 3,
//	})
//
// The cmd/ directory regenerates every table and figure of the paper;
// DESIGN.md maps each to its implementation.
package lightnuca

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/lnuca"
	"repro/internal/obs"
	"repro/internal/orchestrator"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Request is the declarative description of one run — the lnuca-run-v1
// schema shared verbatim by the library, the CLIs and the lnucad HTTP
// API. See the field docs on the underlying type for defaults; only
// Hierarchy plus either Benchmark or Cores+Mix are required.
type Request = orchestrator.Request

// Sweep declares a hierarchy x levels x benchmark matrix of runs: the
// POST /v1/sweeps body and the unit of client-side fan-out. Expand turns
// it into one Request per cell.
type Sweep = orchestrator.SweepRequest

// RequestSchema is the current declarative run schema version.
const RequestSchema = orchestrator.RequestSchema

// Trace is a recorded instruction stream: provenance header plus ops,
// replayable bit-for-bit against any single-core hierarchy. Record
// captures one; Request.Trace (set to the trace's content hash) replays
// one through any Runner.
type Trace = trace.Trace

// TraceInfo is a trace's self-describing provenance: benchmark, seed,
// windows, op count, and the content hash that identifies it.
type TraceInfo = trace.Header

// TraceStore is a content-addressed trace store (directory-backed or
// in-memory), shared between Local runners, the CLIs and lnucad.
type TraceStore = trace.Store

// TraceSchema is the trace format version (lnuca-trace-v1).
const TraceSchema = trace.Schema

// DecodeTrace parses framed lnuca-trace-v1 bytes, verifying the format
// version and the content hash.
func DecodeTrace(data []byte) (*Trace, error) { return trace.Decode(data) }

// Runner executes Requests. Implementations: Local (in process) and
// Client (HTTP against lnucad). Both resolve a Request to the same
// content key, so they share cached results transparently.
type Runner interface {
	Run(ctx context.Context, req Request) (Result, error)
}

// CoreResult is one core's measured share of a CMP mix run.
type CoreResult = exp.CoreResult

// JobRecord is the service-side snapshot of a submitted run: identity
// (ID and content key), lifecycle status, progress, and the inlined
// result once done.
type JobRecord = orchestrator.JobRecord

// SweepStatus aggregates the records of one submitted sweep. From
// Client.Sweep, RunSweep and WaitSweep its Jobs hold every cell; Cursor
// is what WaitSweep passes back so each poll carries only what changed.
type SweepStatus = orchestrator.SweepStatus

// Metrics is the lnucad operational counter snapshot (GET /metrics).
type Metrics = orchestrator.Metrics

// Phases is a run's execution breakdown: per-phase wall time
// (build/warmup/measure), measured throughput in MIPS, and the gated
// kernel's activity counters (stepped vs fast-forwarded cycles, skip
// ratio, average active components). It describes one execution, not the
// run's content, so it is never part of the cached result.
type Phases = exp.Phases

// Timeline is a submitted job's lifecycle history: when it was
// submitted, started and finished, with queue and run durations.
type Timeline = orchestrator.Timeline

// BuildInfo identifies a binary: module version, VCS commit and Go
// toolchain, as served by lnucad's GET /healthz and the CLIs' -version.
type BuildInfo = obs.BuildInfo

// Status is a submitted run's lifecycle state.
type Status = orchestrator.Status

// The run lifecycle: queued -> running -> done | failed | canceled.
const (
	StatusQueued   = orchestrator.StatusQueued
	StatusRunning  = orchestrator.StatusRunning
	StatusDone     = orchestrator.StatusDone
	StatusFailed   = orchestrator.StatusFailed
	StatusCanceled = orchestrator.StatusCanceled
)

// Result summarizes one measured window. Key is the run's job key
// (KeySchema), its content address — identical for the same logical run
// regardless of which Runner (or CLI, or HTTP call) produced it — and
// Cached reports whether it was served from the result store without
// simulating.
type Result struct {
	// Key is the content address of the run.
	Key string
	// Cached reports a result served without simulating.
	Cached bool
	// Config is the paper-style configuration label (e.g. "LN3-144KB",
	// or "4x LN3-144KB" for a mix).
	Config string
	// Benchmark is the synthetic workload name (single-core runs).
	Benchmark string
	// IPC is committed instructions per cycle over the measured window
	// (single-core runs).
	IPC float64
	// Cycles is the measured window length.
	Cycles uint64
	// Energy is the Fig. 4(b)/5(b)-style breakdown for the window.
	Energy power.Breakdown

	// CMP mode (Cores > 1): per-core measurements over the shared LLC,
	// aggregate throughput (sum of per-core IPCs), and the
	// Snavely-Tullsen weighted speedup against single-core baselines.
	Cores           int
	PerCore         []CoreResult
	ThroughputIPC   float64
	WeightedSpeedup float64

	// Stats exposes every counter the simulator collected over the
	// measured window; a mean or a ratio is Stats.Ratio of two of them
	// (the mean load latency is core.load_latency_sum over
	// core.load_latency_count).
	Stats *stats.Set

	// Phases breaks down how this execution spent its time; nil for
	// cached results, which did not execute.
	Phases *Phases
}

// resultFrom converts the orchestrator's servable result into the public
// Result shape, handing it jr's Stats, PerCore and Phases
// rather than copies: jr must be the caller's own — a record Client just
// decoded, a run nobody else holds — never a live cache entry (see
// Local.Run).
func resultFrom(key string, jr *orchestrator.JobResult, cached bool) Result {
	out := Result{
		Key:             key,
		Cached:          cached,
		Config:          jr.Config,
		Benchmark:       jr.Benchmark,
		IPC:             jr.IPC,
		Cycles:          jr.Cycles,
		Cores:           jr.Cores,
		PerCore:         jr.PerCore,
		ThroughputIPC:   jr.ThroughputIPC,
		WeightedSpeedup: jr.WeightedSpeedup,
		Stats:           jr.Stats,
		Phases:          jr.Phases,
	}
	for b := power.Bucket(0); b < 4; b++ {
		out.Energy.Add(b, jr.EnergyPJ[b])
	}
	return out
}

// Record executes one single-core Request in process — exactly the run
// any Runner would perform, bit-identical statistics included — while
// capturing the op stream the core consumed into a replayable Trace.
// The request must name a benchmark (not a mix or another trace).
// Replaying the returned trace on the same hierarchy reproduces this
// run's Result exactly; replaying it on any other hierarchy re-runs the
// identical workload there. Recording always simulates (the capture is
// the point), so no cache is consulted, and the result is not stored.
func Record(ctx context.Context, req Request) (Result, *Trace, error) {
	job, err := req.Job()
	if err != nil {
		return Result{}, nil, err
	}
	if job.IsMix() || job.Trace != "" || job.Benchmark == "" {
		return Result{}, nil, errors.New("lightnuca: Record needs a single-core benchmark request")
	}
	prof, ok := workload.ByName(job.Benchmark)
	if !ok {
		return Result{}, nil, fmt.Errorf("lightnuca: unknown benchmark %q", job.Benchmark)
	}
	res, tr := exp.RecordOneCtx(ctx, job.Spec(), prof, job.Mode, job.Seed, nil)
	if res.Err != nil {
		return Result{}, nil, res.Err
	}
	return resultFrom(job.Key(), orchestrator.ResultOf(res), false), tr, nil
}

// Benchmarks lists the 28 synthetic SPEC CPU2006 workload names. The
// returned slice is a copy; mutating it cannot corrupt the catalog.
func Benchmarks() []string { return workload.Names() }

// Mixes lists the named CMP workload mixes, plus the seeded-draw
// pseudo-mix "random".
func Mixes() []string {
	return append(workload.MixNames(), workload.RandomMixName)
}

// Topology returns the Fig. 2(c)-style latency grid plus the link
// accounting for an n-level L-NUCA.
func Topology(levels int) (string, error) {
	g, err := lnuca.NewGeometry(levels)
	if err != nil {
		return "", err
	}
	return g.RenderSummary() + g.RenderLatencyGrid(), nil
}

// TileTimingReport returns the Fig. 3(d) single-cycle feasibility
// analysis for the paper's 8KB 2-way tile.
func TileTimingReport() string {
	return timing.Analyze(hier.DefaultTableI().TileSRAM()).String()
}

// AreaTable returns the Table II area comparison.
func AreaTable() string { return exp.Table2().String() }
