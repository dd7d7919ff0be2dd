package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/stats"
	"repro/internal/workload"
)

// kernelBenchmarks is the class-balanced subset (2 INT, 2 FP) the
// repository's Fig. 4/5 quick benchmarks have always used. It is fixed:
// per-benchmark simulation speed spans 0.66-1.18 MIPS on the Fig. 4 set
// and 0.12-0.32 on Fig. 5, so drawing the subset from the seed would
// make the seed, not the commit, the largest term in sim_mips. The seed
// varies every cell's instruction stream instead.
var kernelBenchmarks = []string{"403.gcc", "429.mcf", "434.zeusmp", "482.sphinx3"}

// kernelCell is one simulation of a kernel workload: a single-core
// spec x benchmark cell, or (mix non-nil) one 4-core mix.
type kernelCell struct {
	spec  exp.Spec
	bench workload.Profile
	mix   *exp.MixSpec
	mode  exp.Mode
}

func (c kernelCell) label() string {
	if c.mix != nil {
		return c.mix.Label()
	}
	return c.spec.Label() + "/" + c.bench.Name
}

// cellResult is one execution of a cell.
type cellResult struct {
	wall time.Duration
	// instr is the cell's window in committed instructions: the warmup
	// budget plus what the measured window committed, over all cores.
	instr  uint64
	digest [sha256.Size]byte
	stats  *stats.Set
	phases *exp.Phases
	single *exp.Result // nil for a mix
}

// statsDigest hashes the canonical JSON of a statistics set (map keys
// marshal sorted, so equal sets hash equal).
func statsDigest(set *stats.Set) ([sha256.Size]byte, error) {
	b, err := json.Marshal(set)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// checkWindow verifies that the measured window committed what was
// asked for, within a commit width at either end.
func checkWindow(committed, measure uint64) error {
	w := uint64(cpu.DefaultConfig().CommitWidth)
	if committed+w < measure || committed > measure+w {
		return fmt.Errorf("measured window committed %d instructions, want %d within a commit width (%d)", committed, measure, w)
	}
	return nil
}

// stallReports is how many progress reports in a row may show not one
// more committed instruction before the simulated machine counts as
// stalled. The experiment harness reports after every chunk, and a
// chunk is 2048 simulated cycles except at a window boundary, where it
// shrinks to as little as one cycle: a live core waiting there on DRAM
// makes up to ~300 idle reports. Seven times that is a deadlock, found
// within 4.2 million cycles (about 3 s).
const stallReports = 2048

// errStalled is what simulating a deadlocked machine returns.
var errStalled = errors.New("the simulated machine stalled")

// stallGuard watches the progress reports of one simulation and cancels
// it when the machine stalls. The conventional 4-core machine deadlocks
// within its first two thousand instructions on about one seed in a
// hundred (seeds 22 and 317619420 do), and the experiment harness gives
// a 4-core run 121 million cycles, over a minute, before it says so; a
// single-core run it never stops. The rule counts progress reports,
// which follow simulated cycles, not host time, so what it decides
// repeats exactly for a seed.
type stallGuard struct {
	cancel  context.CancelFunc
	last    uint64
	idle    int
	stalled bool
}

func (g *stallGuard) report(done, _ uint64) {
	if done != g.last {
		g.last, g.idle = done, 0
		return
	}
	if g.idle++; g.idle >= stallReports {
		g.stalled = true
		g.cancel()
	}
}

// nextSeed is the candidate that replaces a seed whose machine stalls:
// one step of Knuth's 64-bit linear congruential generator.
func nextSeed(seed uint64) uint64 { return seed*6364136223846793005 + 1442695040888963407 }

// run simulates the cell once through the experiment harness, timing
// the whole call: build, prewarm, warmup and measured window. A machine
// that stalls yields errStalled.
func (c kernelCell) run(ctx context.Context, seed uint64) (cellResult, error) {
	var out cellResult
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	guard := &stallGuard{cancel: cancel}
	start := time.Now()
	if c.mix != nil {
		r := exp.RunMixCtx(ctx, *c.mix, c.mode, seed, guard.report)
		out.wall = time.Since(start)
		if guard.stalled {
			return out, errStalled
		}
		if r.Err != nil {
			return out, r.Err
		}
		w := uint64(cpu.DefaultConfig().CommitWidth)
		for _, core := range r.PerCore {
			// Cores that finish early keep running, so only the lower
			// end of a core's window is bounded.
			if core.Committed+w < c.mode.Measure {
				return out, fmt.Errorf("core running %s committed %d of %d", core.Benchmark, core.Committed, c.mode.Measure)
			}
			out.instr += c.mode.Warmup + core.Committed
		}
		out.stats, out.phases = r.Stats, r.Phases
	} else {
		r := exp.RunOneCtx(ctx, c.spec, c.bench, c.mode, seed, guard.report)
		out.wall = time.Since(start)
		if guard.stalled {
			return out, errStalled
		}
		if r.Err != nil {
			return out, r.Err
		}
		committed := r.Stats.Counter("core.committed")
		if err := checkWindow(committed, c.mode.Measure); err != nil {
			return out, err
		}
		out.instr = c.mode.Warmup + committed
		out.stats, out.phases, out.single = r.Stats, r.Phases, &r
	}
	var err error
	out.digest, err = statsDigest(out.stats)
	return out, err
}

// singleCells crosses specs with the kernel benchmarks, spec-major.
func singleCells(specs []exp.Spec, mode exp.Mode) ([]kernelCell, error) {
	var cells []kernelCell
	for _, s := range specs {
		for _, name := range kernelBenchmarks {
			prof, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("benchmark %s is not in the catalog", name)
			}
			cells = append(cells, kernelCell{spec: s, bench: prof, mode: mode})
		}
	}
	return cells, nil
}

// mixCells are the two 4-core mixes of cmp4_mix: the kernel benchmarks
// one per core, on the conventional and on the LN3+L3 hierarchy.
func mixCells(mode exp.Mode) []kernelCell {
	var cells []kernelCell
	for _, kind := range []hier.Kind{hier.Conventional, hier.LNUCAL3} {
		spec := exp.MixSpec{Kind: kind, Benchmarks: kernelBenchmarks}
		if kind == hier.LNUCAL3 {
			spec.Levels = 3
		}
		cells = append(cells, kernelCell{mix: &spec, mode: mode})
	}
	return cells
}

// workloadDigest folds the cells' digests, in cell order, into the one
// stats_sha256 a workload prints.
func workloadDigest(cells []cellResult) string {
	h := sha256.New()
	for _, c := range cells {
		h.Write(c.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPass executes every cell once, serially, on this goroutine. A
// cell that errors or whose statistics differ from ref (when given)
// counts as failed. A cell whose machine stalls ends the pass: the seed
// is no input of this workload, and referencePass replaces it.
func runPass(e *env, rep *report, cells []kernelCell, ref []cellResult) ([]cellResult, error) {
	out := make([]cellResult, len(cells))
	for i, c := range cells {
		r, err := c.run(e.ctx, e.seed)
		if errors.Is(err, errStalled) {
			return nil, fmt.Errorf("%s: %w", c.label(), err)
		}
		rep.attempted++
		switch {
		case err != nil:
			rep.fail(1, "%s: %v", c.label(), err)
		case ref != nil && r.digest != ref[i].digest:
			rep.fail(1, "%s: statistics differ between passes of the same cell", c.label())
		}
		out[i] = r
	}
	return out, nil
}

// seedTries bounds referencePass's walk over candidate seeds: a
// simulator that stalls on this many in a row is broken, not unlucky.
const seedTries = 8

// referencePass is the first pass of a kernel workload, the one every
// later pass's statistics must equal. It also settles the seed all of
// the run's simulations use: the run's own, unless a cell's machine
// stalls on it; then e.seed moves to the next candidate and the pass
// starts over. The walk is a function of the seed and of the simulator,
// so the same seed gives the same inputs on every run of one commit.
func referencePass(e *env, rep *report, cells []kernelCell) ([]cellResult, error) {
	for try := 1; ; try++ {
		ref, err := runPass(e, rep, cells, nil)
		if err == nil || try == seedTries {
			return ref, err
		}
		next := nextSeed(e.seed)
		rep.note("seed %d is no input of this workload (%v); simulating with seed %d", e.seed, err, next)
		e.seed = next
	}
}

func walls(cells []cellResult) []time.Duration {
	out := make([]time.Duration, len(cells))
	for i, c := range cells {
		out[i] = c.wall
	}
	return out
}

func totalInstr(cells []cellResult) uint64 {
	var n uint64
	for _, c := range cells {
		n += c.instr
	}
	return n
}

// runKernel measures a kernel workload end to end: one discarded pass
// (the host's caches, heap and branch predictors warm up; it is also
// the reference every later pass's statistics must equal), then timed
// passes until the run's seconds are used. Between passes, warm
// submits are served from a small cached store, so their samples
// spread over the whole run. They are answered at the HTTP handler, in
// this goroutine, by a stack without a journal: through a connection a
// warm submit is a chain of cross-vCPU wake-ups, and with a journal it
// is an fsync (the orchestrator journals cache hits), and on a shared
// box either costs whatever the host's other tenants make it cost —
// 45-80 % more from one quarter hour to the next. What is left is the
// service's own work, which is what a regression would change; the
// sweep workloads measure the whole path.
func runKernel(e *env, name string, cells []kernelCell) (*report, error) {
	rep := newReport(name)
	start := time.Now()
	ref, err := referencePass(e, rep, cells)
	if err != nil {
		return nil, err
	}
	probe, err := newWarmStore(e, sweepRequests(e)[:e.sz.probePoints], stackOptions{noJournal: true})
	if err != nil {
		return nil, err
	}
	defer probe.close()
	rep.metrics["setup_s"] = time.Since(start).Seconds()
	rep.statsSHA256 = workloadDigest(ref)

	var passes [][]time.Duration
	for measured := time.Now(); ; {
		pass, err := runPass(e, rep, cells, ref)
		if err != nil {
			return nil, err
		}
		passes = append(passes, walls(pass))
		probe.batch(e, rep, e.sz.probeBatch, probe.serve)
		if time.Since(measured).Seconds() >= e.seconds {
			break
		}
	}
	best := fastestSum(passes).Seconds()
	rep.metrics["sim_mips"] = ratio(float64(totalInstr(ref))/1e6, best)
	rep.metrics["points_per_s"] = ratio(float64(len(cells)), best)
	rep.metrics["warm_submit_p50_ms"] = median(probe.samplesMS)
	rep.note("%d timed passes of %d cells; %d warm submits", len(passes), len(cells), len(probe.samplesMS))
	return rep, nil
}
