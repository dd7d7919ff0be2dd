// Package orchestrator is the experiment orchestration layer between the
// simulation kernel and the front-ends: the declarative run schema
// (Request, lnuca-run-v1) that the library, the CLIs and the HTTP API
// all parse into, a job model with a canonical content-addressed key,
// a memoizing result cache (in-memory LRU plus an optional JSON file
// store), a bounded priority worker pool with cancellation and
// progress, and the HTTP JSON API served by cmd/lnucad.
//
// The design premise (shared with Sniper-style NUCA studies and
// GPU-scale NOC simulation work) is that at scale the bottleneck is
// orchestration — scheduling many configurations and never recomputing
// what you already know — not the per-run kernel.
package orchestrator

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Job names one simulation: a hierarchy, its L-NUCA depth where
// applicable, a benchmark (or, in CMP mode, a core count and a workload
// mix), a run mode, and a seed. It is the normalized form of a Request —
// every front-end parses into it via Request.Job — and two Jobs with the
// same canonical Key are the same computation and share one result.
type Job struct {
	Kind      hier.Kind    `json:"-"`
	Hierarchy string       `json:"hierarchy"` // paper-style name, set by Normalize
	Levels    int          `json:"levels,omitempty"`
	machine   hier.Machine // the machine member, as only Request.parse resolves it
	Benchmark string       `json:"benchmark,omitempty"`
	// Cores selects the multi-programmed CMP mode when > 1: Cores
	// out-of-order cores with private first levels over the shared LLC.
	Cores int `json:"cores,omitempty"`
	// Mix is the CMP workload spec: a named mix ("mixed", "memory", ...),
	// "random" for a seeded draw, or an explicit comma-separated
	// benchmark list. Normalize resolves it into MixBenchmarks.
	Mix string `json:"mix,omitempty"`
	// MixBenchmarks is the resolved mix, one benchmark per core — the
	// content that is keyed, so a "random" draw memoizes as the concrete
	// benchmarks it resolved to.
	MixBenchmarks []string `json:"mix_benchmarks,omitempty"`
	// Trace is a recorded stream's content hash: the job replays it
	// instead of generating a workload. The hash pins benchmark
	// provenance, seed and windows, so a trace job carries an empty Mode
	// and a zero Seed and keys on the hash alone (plus hierarchy).
	Trace string   `json:"trace,omitempty"`
	Mode  exp.Mode `json:"mode"`
	Seed  uint64   `json:"seed"`
	// Priority orders the queue: higher runs first. It is not part of
	// the content key.
	Priority int `json:"priority,omitempty"`
}

// IsMix reports whether the job is a multi-programmed CMP run.
func (j Job) IsMix() bool { return j.Cores > 1 }

// Normalize canonicalizes a job so that equivalent submissions collapse
// onto one key: defaulted seed and levels, levels cleared for
// hierarchies without an L-NUCA, benchmark validated against the
// catalog, mix resolved to concrete benchmarks, and mode reduced to its
// window sizes.
func (j Job) Normalize() (Job, error) {
	if j.Trace != "" {
		return j.normalizeTrace()
	}
	if j.Seed == 0 {
		j.Seed = 1
	}
	switch {
	case j.Cores < 0 || j.Cores > hier.MaxCMPCores:
		return j, fmt.Errorf("orchestrator: cores must be 0 (single-core) or 2..%d (CMP), got %d", hier.MaxCMPCores, j.Cores)
	case j.Cores == 1:
		return j, fmt.Errorf("orchestrator: cores 1 is not a CMP — omit cores for a single-core job, or use 2..%d with a mix", hier.MaxCMPCores)
	case j.Cores == 0 && j.Mix != "":
		return j, fmt.Errorf("orchestrator: mix %q needs cores 2..%d", j.Mix, hier.MaxCMPCores)
	case j.IsMix():
		if j.Benchmark != "" {
			return j, fmt.Errorf("orchestrator: a mix job takes cores+mix, not benchmark %q", j.Benchmark)
		}
		// The seed fixes random draws, so the resolved list — the actual
		// content — is stable and cacheable.
		resolved, err := workload.ResolveMix(j.Mix, j.Cores, j.Seed)
		if err != nil {
			return j, fmt.Errorf("orchestrator: %w", err)
		}
		j.MixBenchmarks = resolved
		j.Mix = strings.TrimSpace(j.Mix)
	default:
		j.Cores = 0
		j.Mix = ""
		j.MixBenchmarks = nil
		if _, ok := workload.ByName(j.Benchmark); !ok {
			return j, fmt.Errorf("orchestrator: unknown benchmark %q", j.Benchmark)
		}
	}
	var err error
	if j.Levels, err = hier.Levels(j.Kind, j.Levels); err != nil {
		return j, err
	}
	if j.Mode.Warmup == 0 && j.Mode.Measure == 0 {
		j.Mode = exp.Quick
	}
	if j.Mode.Measure == 0 {
		return j, fmt.Errorf("orchestrator: mode %q specifies warmup %d with an empty measured window — a half-specified window would silently measure nothing",
			j.Mode.Name, j.Mode.Warmup)
	}
	if j.IsMix() {
		j.Hierarchy = j.MixSpec().Label()
	} else {
		j.Hierarchy = j.Spec().Label()
	}
	return j, nil
}

// traceConflict is the one validator of what may accompany a trace. The
// trace content hash pins the benchmark provenance, the seed and the
// windows, so a trace job names only a hierarchy and the hash — anything
// else the caller tried to pin alongside is a conflict, rejected loudly
// rather than silently ignored.
func (j Job) traceConflict() error {
	switch {
	case j.Benchmark != "":
		return fmt.Errorf("orchestrator: a run replays either a trace or a benchmark, not both (trace %s, benchmark %q)", j.Trace, j.Benchmark)
	case j.Cores != 0 || j.Mix != "" || len(j.MixBenchmarks) != 0:
		return fmt.Errorf("orchestrator: trace runs are single-core — drop cores/mix (trace %s)", j.Trace)
	case j.Seed != 0:
		return fmt.Errorf("orchestrator: the trace pins the seed — drop seed %d (trace %s)", j.Seed, j.Trace)
	case j.Mode != (exp.Mode{}):
		return fmt.Errorf("orchestrator: the trace pins the simulation windows — drop mode/warmup/measure (trace %s)", j.Trace)
	case !trace.ValidID(j.Trace):
		return fmt.Errorf("orchestrator: malformed trace id %q (want a 64-hex-digit lnuca-trace-v1 content hash)", j.Trace)
	}
	return nil
}

// normalizeTrace canonicalizes a trace-replay job.
func (j Job) normalizeTrace() (Job, error) {
	if err := j.traceConflict(); err != nil {
		return j, err
	}
	var err error
	if j.Levels, err = hier.Levels(j.Kind, j.Levels); err != nil {
		return j, err
	}
	j.Hierarchy = j.Spec().Label()
	return j, nil
}

// Spec returns the exp harness spec for a single-core job.
func (j Job) Spec() exp.Spec {
	return exp.Spec{Kind: j.Kind, Levels: j.Levels, Machine: j.machine}
}

// MixSpec returns the exp harness spec for a mix job.
func (j Job) MixSpec() exp.MixSpec {
	return exp.MixSpec{Kind: j.Kind, Levels: j.Levels, Machine: j.machine, Benchmarks: j.MixBenchmarks}
}

// KeySchema versions the content key, and with it every stored result.
// Bump it whenever the canon string changes meaning — a field added or
// reshaped, or a model change after which the same canon computes other
// bytes — so stale on-disk results become misses instead of silently
// serving the wrong computation. The digest ledger says which: a change
// either leaves cmd/lnucasim/testdata/digests_{quick,full}.txt
// byte-identical, or it bumps KeySchema and regenerates them with
// `lnucasim -exp digests` (DESIGN.md, "Determinism and cacheability").
//
// Revisions:
//   - v2: the hierarchy is keyed by its stable paper label, not the
//     numeric hier.Kind.
//   - v3: three model fixes that moved stored bytes.
//     (a) A write-buffer write to a line with a live MSHR merges past the
//     secondary limit (cache.MSHRFile.MergeWrite), and a fill waits for
//     a write-buffer slot only when its victim is dirty: the Full-mode
//     L2 deadlock. (b) A mix's measured window stays open until every
//     core has measured its budget. Moved at seed 1: Full L2-256KB
//     410.bwaves, 416.gamess, 433.milc, 437.leslie3d, 462.libquantum,
//     470.lbm (which used to stall); LN2-72KB 462.libquantum, 470.lbm;
//     LN3-144KB and LN4-248KB 410.bwaves, 470.lbm; Quick L2-256KB
//     410.bwaves; of the Quick mixes sampled, 4x L2-256KB memory, fp,
//     mixed, 4x LN3-144KB memory, fp, 4x DN-4x8 fp, and the 2-core
//     L2-256KB 401.bzip2+436.cactusADM. (c) A load that a full memory
//     port refuses looks up the TLB only once it is accepted, so its
//     retry pays the miss it used to lose (cpu.Core.tryExecute). It
//     moved 113 of the 244 Quick ledger lines and 194 of the 244 Full
//     ones; the largest IPC move is Quick LN2 + DN-4x8 459.GemsFDTD,
//     0.6772 -> 0.6731 (-0.61 %).
//   - v4: two model fixes, both found by exp.TestLatencyStaircase.
//     (a) The conventional L1 delivers a hit the cycle it accepts the
//     read (cache.Controller.Eval accepts, then delivers, as the r-tile
//     does), so a hit costs Table I's 2 cycles, not 3. (b) The D-NUCA
//     takes a line's bank set from the block-number bits above the
//     bank's set index (dnuca.DNUCA.Column), so its banks use every set
//     and the 8 MB D-NUCA holds 8 MB, not 1 MB. Every cell with a
//     conventional L1 or a D-NUCA moved, 155 of the 244 lines of each
//     ledger; LN+L3 cells did not. The largest IPC move is Quick 4x
//     DN-4x8 fp, 1.0630 -> 1.3472 (+26.7 %); at Full, LN2 + DN-4x8
//     410.bwaves, 0.7300 -> 0.9110 (+24.8 %).
//   - v5: the D-NUCA counts a read when it accepts it (dnuca.DNUCA.
//     acceptRead), not again on every cycle a full MSHR file refuses
//     it. Only dn.reads moved: 9 Quick and 24 Full ledger lines, every
//     one a D-NUCA cell; IPC, cycles, energy and every other counter
//     are byte-identical. The largest move is Quick 4x DN-4x8 fp,
//     31,029 -> 4,575 reads.
//   - v6: a result is its measured window's counters. The load-latency
//     histogram (load_latency) and the set's five scalars (core.ipc,
//     core.bpred_accuracy, core.avg_load_latency, ln.transport_ratio and
//     dn.avg_search_latency, end-of-run values, warmup included) left
//     the result; core.load_latency_sum, core.load_latency_count,
//     dn.search_latency_sum and dn.searches_resolved joined its counters,
//     and readers work each mean out from them. No simulated quantity
//     moved: every other member of every ledger line is v5's.
const KeySchema = "lnuca-job-v6"

// machineField ends a canon whose machine sets a row (TestMachineKeyGolden).
const machineField = "|machine="

// Key returns the content address of a normalized job: a SHA-256 over
// every field that determines the result (mode windows, not the mode's
// display name; never the priority). The hierarchy is identified by its
// stable paper label, not the numeric enum — reordering or inserting a
// hier.Kind must never alias previously cached results.
//
// Trace jobs use their own canon shape: the trace content hash already
// pins benchmark, seed and windows, so only the hierarchy is added. The
// two shapes cannot collide ("|bench=" vs "|trace=" after the levels
// field), and non-trace canon strings are byte-for-byte what they were
// before traces existed, keeping every previously cached result
// reachable — and only a machine that sets a row adds a field.
func (j Job) Key() string {
	var buf [256]byte
	canon := append(append(buf[:0], KeySchema...), "|hier="...)
	canon = append(canon, j.Kind.String()...)
	canon = strconv.AppendInt(append(canon, "|levels="...), int64(j.Levels), 10)
	if j.Trace != "" {
		canon = append(append(canon, "|trace="...), j.Trace...)
	} else {
		canon = append(append(canon, "|bench="...), j.Benchmark...)
		canon = strconv.AppendInt(append(canon, "|cores="...), int64(j.Cores), 10)
		canon = append(canon, "|mix="...)
		for i, b := range j.MixBenchmarks {
			if i > 0 {
				canon = append(canon, ',')
			}
			canon = append(canon, b...)
		}
		canon = strconv.AppendUint(append(canon, "|warmup="...), j.Mode.Warmup, 10)
		canon = strconv.AppendUint(append(canon, "|measure="...), j.Mode.Measure, 10)
		canon = strconv.AppendUint(append(canon, "|seed="...), j.Seed, 10)
	}
	if j.machine != "" {
		canon = append(append(canon, machineField...), j.machine...)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// ParseMode resolves a mode name ("quick", "full", or "") to its window
// sizes; empty means quick.
func ParseMode(name string) (exp.Mode, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "quick":
		return exp.Quick, nil
	case "full":
		return exp.Full, nil
	}
	return exp.Mode{}, fmt.Errorf("orchestrator: unknown mode %q (want quick or full)", name)
}

// JobResult is the servable measurement for one job: what exp.Result or
// exp.MixResult carries, in JSON-marshalable form. Single-core jobs fill
// Benchmark/IPC/Energy; mix jobs fill Cores/PerCore and the
// multi-programmed aggregates.
type JobResult struct {
	Config    string     `json:"config"`
	Benchmark string     `json:"benchmark,omitempty"`
	IPC       float64    `json:"ipc,omitempty"`
	Cycles    uint64     `json:"cycles"`
	EnergyPJ  [4]float64 `json:"energy_pj"` // power.Bucket order

	// CMP mode.
	Cores           int              `json:"cores,omitempty"`
	PerCore         []exp.CoreResult `json:"per_core,omitempty"`
	ThroughputIPC   float64          `json:"throughput_ipc,omitempty"`
	WeightedSpeedup float64          `json:"weighted_speedup,omitempty"`

	Stats *stats.Set `json:"stats,omitempty"`

	// Phases is the wall-time and kernel-activity breakdown of the run
	// that produced this result. It describes one execution, not the
	// job's content: the result cache strips it before storing, so
	// cached results carry no Phases and cache entries stay byte-stable
	// across executions.
	Phases *exp.Phases `json:"phases,omitempty"`

	// stored is this result's encoding as its file in a Cache's store holds
	// it, set by the Cache that wrote or read that file and by nothing else.
	stored []byte
}

// MarshalJSON serves a file-backed cache entry the bytes its store holds,
// produced once when it was put or loaded, instead of encoding it again on
// every hit. Every other result encodes in full: one no file-backed cache
// holds, and a fresh one, which carries the Phases the store strips.
func (r *JobResult) MarshalJSON() ([]byte, error) {
	if r.stored != nil && r.Phases == nil {
		return r.stored, nil
	}
	return r.encode()
}

// encode is the result's full encoding, stored bytes or not.
func (r *JobResult) encode() ([]byte, error) {
	type fields JobResult // the same fields, without MarshalJSON
	return json.Marshal((*fields)(r))
}

// Valid reports whether a decoded result is structurally plausible: the
// file-store uses it to tell a real result from a truncated or foreign
// JSON document that happens to parse.
func (r *JobResult) Valid() bool {
	if r == nil || r.Config == "" || r.Cycles == 0 {
		return false
	}
	if r.Cores > 0 {
		return len(r.PerCore) == r.Cores
	}
	return r.Benchmark != ""
}

// ResultOf converts a successful exp.Result.
func ResultOf(r exp.Result) *JobResult {
	out := &JobResult{
		Config:    r.Spec.Label(),
		Benchmark: r.Bench.Name,
		IPC:       r.IPC,
		Cycles:    r.Cycles,
		Stats:     r.Stats,
		Phases:    r.Phases,
	}
	for b := power.Bucket(0); b < 4; b++ {
		out.EnergyPJ[b] = r.Energy.Get(b)
	}
	return out
}

// MixResultOf converts a successful exp.MixResult; weightedSpeedup is
// computed by the caller from cached single-core baselines.
func MixResultOf(r exp.MixResult, weightedSpeedup float64) *JobResult {
	return &JobResult{
		Config:          r.Spec.Label(),
		Cores:           len(r.PerCore),
		PerCore:         r.PerCore,
		Cycles:          r.Cycles,
		ThroughputIPC:   r.Throughput,
		WeightedSpeedup: weightedSpeedup,
		Stats:           r.Stats,
		Phases:          r.Phases,
	}
}
