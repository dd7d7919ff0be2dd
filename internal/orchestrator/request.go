package orchestrator

// Request is the one declarative, versioned description of a run that
// every entry path shares: the lightnuca library (Runner.Run), the CLIs
// (flags parse into a Request), and the lnucad HTTP API (POST /v1/jobs
// decodes a Request verbatim). A Request is pure data — strings and
// numbers, JSON-marshalable — and Job is its normalization: whatever
// path a logical run arrives through, it parses into the same Job and
// therefore the same job key (KeySchema), so all front-ends share
// one result cache.

import (
	"errors"
	"fmt"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/workload"
)

// RequestSchema versions the declarative run schema. Decoders accept an
// empty Schema (v1 is the only version); any other value is rejected so
// a future v2 consumer never silently misreads v1 producers or vice
// versa.
const RequestSchema = "lnuca-run-v1"

// Request declares one run. The zero value of every optional field
// selects the documented default; only Hierarchy plus either Benchmark
// or Cores+Mix are required.
type Request struct {
	// Schema is the request schema version; empty means RequestSchema.
	Schema string `json:"schema,omitempty"`
	// Hierarchy is one of the Fig. 1 organizations by paper label or
	// alias: "conventional", "ln+l3", "dn-4x8", "ln+dn-4x8".
	Hierarchy string `json:"hierarchy"`
	// Levels is the L-NUCA depth (2..6) where the hierarchy has one;
	// 0 defaults to 3.
	Levels int `json:"levels,omitempty"`
	// Machine sets rows of hier's machine table, e.g. {"ln.link_buf": 1}.
	Machine map[string]float64 `json:"machine,omitempty"`
	// Benchmark names one catalog workload (single-core runs).
	Benchmark string `json:"benchmark,omitempty"`
	// Cores > 1 selects the multi-programmed CMP mode over the shared
	// LLC; Mix then replaces Benchmark.
	Cores int `json:"cores,omitempty"`
	// Mix is a named pool ("int", "fp", "mixed", "memory", "compute"),
	// "random" for a seeded draw, or an explicit comma-separated list.
	Mix string `json:"mix,omitempty"`
	// Trace names a recorded instruction stream by its lnuca-trace-v1
	// content hash: the run replays that trace against Hierarchy instead
	// of generating a synthetic stream. Mutually exclusive with
	// Benchmark and Cores/Mix; the trace itself pins the benchmark
	// provenance, the seed and the windows, so Mode/Warmup/Measure/Seed
	// must stay unset.
	Trace string `json:"trace,omitempty"`
	// Mode names the simulation window ("quick" or "full"; empty means
	// quick). Explicit Warmup/Measure windows override it.
	Mode    string `json:"mode,omitempty"`
	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure,omitempty"`
	// Seed fixes all randomness, including "random" mix draws (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Priority orders the service queue; it is not part of the content
	// key.
	Priority int `json:"priority,omitempty"`
}

// parse maps a Request onto the un-normalized job model: schema check,
// hierarchy and mode name resolution, window overrides, trace
// conflicts. Validation that needs the workload catalog (benchmarks,
// mixes) happens in Job.Normalize.
func (r Request) parse() (Job, error) {
	if r.Schema != "" && r.Schema != RequestSchema {
		return Job{}, fmt.Errorf("orchestrator: unsupported request schema %q (want %q)", r.Schema, RequestSchema)
	}
	kind, err := hier.ParseKind(r.Hierarchy)
	if err != nil {
		return Job{}, err
	}
	machine, err := hier.ResolveMachine(kind, r.Machine)
	if err != nil {
		return Job{}, err
	}
	// A trace pins its own windows, so an empty mode must stay empty
	// there instead of defaulting to quick.
	var mode exp.Mode
	if r.Trace == "" || r.Mode != "" {
		if mode, err = ParseMode(r.Mode); err != nil {
			return Job{}, err
		}
	}
	if r.Warmup != 0 || r.Measure != 0 {
		mode = exp.Mode{Name: "custom", Warmup: r.Warmup, Measure: r.Measure}
	}
	j := Job{
		Kind:      kind,
		Levels:    r.Levels,
		machine:   machine,
		Benchmark: r.Benchmark,
		Cores:     r.Cores,
		Mix:       r.Mix,
		Trace:     r.Trace,
		Mode:      mode,
		Seed:      r.Seed,
		Priority:  r.Priority,
	}
	if r.Trace != "" {
		// A request naming something its trace already pins fails here,
		// at parse time — before any queue or store is consulted.
		err = j.traceConflict()
	}
	return j, err
}

// Job parses and normalizes the request into the canonical job the
// orchestrator executes and keys. Every front-end funnels through this
// one path, which is what makes keys entry-point independent.
func (r Request) Job() (Job, error) {
	j, err := r.parse()
	if err != nil {
		return Job{}, err
	}
	return j.Normalize()
}

// Key returns the job key (KeySchema), the content address of the run
// the request describes — identical across library, CLI and HTTP
// submissions of the same logical run.
func (r Request) Key() (string, error) {
	j, err := r.Job()
	if err != nil {
		return "", err
	}
	return j.Key(), nil
}

// Normalize returns the canonical form of the request: schema stamped,
// hierarchy in canonical spelling, defaults applied. Two requests with
// the same normalized form are the same computation.
func (r Request) Normalize() (Request, error) {
	j, err := r.Job()
	if err != nil {
		return Request{}, err
	}
	return RequestOf(j), nil
}

// RequestOf renders a job back as a declarative request, inverse to
// Request.Job up to normalization: RequestOf(j).Job() has the same
// content key as j for any normalized j.
func RequestOf(j Job) Request {
	r := Request{
		Schema:    RequestSchema,
		Hierarchy: j.Kind.RequestName(),
		Levels:    j.Levels,
		Machine:   j.machine.Values(),
		Benchmark: j.Benchmark,
		Cores:     j.Cores,
		Mix:       j.Mix,
		Trace:     j.Trace,
		Seed:      j.Seed,
		Priority:  j.Priority,
	}
	if j.Trace != "" {
		// The trace pins seed and windows; a normalized trace job carries
		// neither.
		return r
	}
	switch j.Mode {
	case exp.Quick:
		r.Mode = exp.Quick.Name
	case exp.Full:
		r.Mode = exp.Full.Name
	default:
		r.Warmup, r.Measure = j.Mode.Warmup, j.Mode.Measure
	}
	return r
}

// SweepRequest declares a benchmark x hierarchy x levels matrix — the
// POST /v1/sweeps body, and the client-side fan-out unit. An empty
// Benchmarks list means the full 28-benchmark suite; Levels applies to
// hierarchies with an L-NUCA (empty = depth 3).
type SweepRequest struct {
	Schema      string   `json:"schema,omitempty"`
	Hierarchies []string `json:"hierarchies"`
	Levels      []int    `json:"levels,omitempty"`
	Benchmarks  []string `json:"benchmarks,omitempty"`
	Mode        string   `json:"mode,omitempty"`
	Warmup      uint64   `json:"warmup,omitempty"`
	Measure     uint64   `json:"measure,omitempty"`
	Seed        uint64   `json:"seed,omitempty"`
	Priority    int      `json:"priority,omitempty"`
}

// maxSweepCells bounds what one sweep may expand to: 2 KB of repeated
// hierarchies and levels in a POST /v1/sweeps body is millions of cells.
// The paper's two matrices are 224.
const maxSweepCells = 16384

// Expand fans the matrix out into one Request per cell. Expansion is
// deterministic, so submitting the expanded requests one by one is
// content-equivalent to submitting the sweep.
func (s SweepRequest) Expand() ([]Request, error) {
	jobs, err := s.Jobs()
	if err != nil {
		return nil, err
	}
	out := make([]Request, len(jobs))
	for i, j := range jobs {
		out[i] = RequestOf(j)
	}
	return out, nil
}

// Jobs expands the sweep into un-normalized jobs, ready for SubmitSweep
// (which normalizes and validates each cell).
func (s SweepRequest) Jobs() ([]Job, error) {
	if s.Schema != "" && s.Schema != RequestSchema {
		return nil, fmt.Errorf("orchestrator: unsupported sweep schema %q (want %q)", s.Schema, RequestSchema)
	}
	if len(s.Hierarchies) == 0 {
		return nil, errors.New("orchestrator: sweep needs at least one hierarchy")
	}
	kinds := make([]hier.Kind, len(s.Hierarchies))
	for i, h := range s.Hierarchies {
		k, err := hier.ParseKind(h)
		if err != nil {
			return nil, err
		}
		kinds[i] = k
	}
	mode, err := ParseMode(s.Mode)
	if err != nil {
		return nil, err
	}
	if s.Warmup != 0 || s.Measure != 0 {
		mode = exp.Mode{Name: "custom", Warmup: s.Warmup, Measure: s.Measure}
	}
	benches := s.Benchmarks
	if len(benches) == 0 {
		benches = workload.Names()
	}
	// The lists multiply, so the product is checked before a cell is
	// allocated — in float64, where three outside lengths cannot wrap and
	// every count near the bound is exact.
	rows, perLN := 0.0, float64(max(len(s.Levels), 1))
	for _, k := range kinds {
		if k.HasLNUCA() {
			rows += perLN
		} else {
			rows++
		}
	}
	if cells := rows * float64(len(benches)); cells > maxSweepCells {
		return nil, fmt.Errorf("orchestrator: sweep expands to %.0f cells, over the %d one sweep may hold", cells, maxSweepCells)
	}
	jobs := ExpandSweep(kinds, s.Levels, benches, mode, s.Seed)
	for i := range jobs {
		jobs[i].Priority = s.Priority
	}
	return jobs, nil
}
