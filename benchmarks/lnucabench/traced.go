package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// layer indexes the modules a simulated machine's components belong to.
type layer int

const (
	layerCPU layer = iota
	layerCache
	layerLNUCA
	layerDNUCA
	layerDRAM
	layerArbiter
	numLayers
)

// sampled selects the cycles on which a component's calls are timed:
// one in 64, so the two clock reads per call cost a traced pass a few
// percent, not a multiple. They come as runs of 8 in every 512, not as
// every 64th: back to back the clock's own code stays in the host's
// caches, and what timing adds to a timed call stays near the figure
// clockCostNS calibrates, which isolated samples exceed.
func sampled(c sim.Cycle) bool { return c&511 < 8 }

// callCost accumulates one method's calls: how many there were, how
// many were timed, and the timed ones' total.
type callCost struct {
	calls, timed uint64
	ns           int64
}

// estimate scales the timed calls' cost up to all calls, after taking
// the clock's own cost off each timed call.
func (c callCost) estimate(clockNS int64) float64 {
	if c.timed == 0 {
		return 0
	}
	net := c.ns - int64(c.timed)*clockNS
	if net < 0 {
		net = 0
	}
	return float64(net) * float64(c.calls) / float64(c.timed)
}

// timedComponent stands between the harness's kernel and one component
// of a built machine, timing a sample of the kernel's calls into it.
// The component still sees every call, with the same arguments, so the
// machine's statistics are those of an unwrapped run.
type timedComponent struct {
	inner                   sim.Quiescent
	layer                   layer
	eval, commit, nextEvent callCost
}

func (t *timedComponent) Name() string { return t.inner.Name() }

func (t *timedComponent) Eval(k *sim.Kernel) {
	t.eval.calls++
	if !sampled(k.Cycle()) {
		t.inner.Eval(k)
		return
	}
	start := time.Now()
	t.inner.Eval(k)
	t.eval.ns += time.Since(start).Nanoseconds()
	t.eval.timed++
}

func (t *timedComponent) Commit(k *sim.Kernel) {
	t.commit.calls++
	if !sampled(k.Cycle()) {
		t.inner.Commit(k)
		return
	}
	start := time.Now()
	t.inner.Commit(k)
	t.commit.ns += time.Since(start).Nanoseconds()
	t.commit.timed++
}

func (t *timedComponent) NextEvent(now sim.Cycle) (sim.Cycle, bool) {
	t.nextEvent.calls++
	if !sampled(now) {
		return t.inner.NextEvent(now)
	}
	start := time.Now()
	wake, idle := t.inner.NextEvent(now)
	t.nextEvent.ns += time.Since(start).Nanoseconds()
	t.nextEvent.timed++
	return wake, idle
}

func (t *timedComponent) SkipTo(now, target sim.Cycle) { t.inner.SkipTo(now, target) }

// idleComponent does nothing: timing it yields what the timing itself costs.
type idleComponent struct{}

func (idleComponent) Name() string                                 { return "idle" }
func (idleComponent) Eval(*sim.Kernel)                             {}
func (idleComponent) Commit(*sim.Kernel)                           {}
func (idleComponent) NextEvent(sim.Cycle) (wake sim.Cycle, _ bool) { return sim.Never, true }
func (idleComponent) SkipTo(now, target sim.Cycle)                 {}

// clockCostNS measures what a timed call pays for being timed — two
// clock reads and the wrapper's own dispatch — as the mean over many
// timed calls into a component that does nothing.
func clockCostNS() int64 {
	t := wrap(layerCPU, idleComponent{})
	k := sim.NewKernel() // at cycle 0, which is sampled
	for i := 0; i < 50_000; i++ {
		t.Eval(k)
	}
	return t.eval.ns / int64(t.eval.timed)
}

// machine is a built system — single-core or CMP — seen the way the
// traced loop needs it.
type machine struct {
	kind     hier.Kind
	parts    []*timedComponent
	prewarm  func()
	collect  func() *stats.Set
	progress func() uint64 // committed instructions of the slowest core
	width    int           // commit width, for window clamping
}

func wrap(l layer, c sim.Quiescent) *timedComponent {
	return &timedComponent{inner: c, layer: l}
}

func singleMachine(sys *hier.System) *machine {
	m := &machine{
		kind:     sys.Kind,
		prewarm:  sys.Prewarm,
		collect:  sys.Collect,
		progress: func() uint64 { return sys.Core.Committed },
		width:    sys.Core.MaxCommitPerCycle(),
	}
	m.parts = append(m.parts, wrap(layerCPU, sys.Core))
	if sys.L1 != nil {
		m.parts = append(m.parts, wrap(layerCache, sys.L1))
	}
	if sys.L2 != nil {
		m.parts = append(m.parts, wrap(layerCache, sys.L2))
	}
	if sys.L3 != nil {
		m.parts = append(m.parts, wrap(layerCache, sys.L3))
	}
	if sys.Fabric != nil {
		m.parts = append(m.parts, wrap(layerLNUCA, sys.Fabric))
	}
	if sys.DN != nil {
		m.parts = append(m.parts, wrap(layerDNUCA, sys.DN))
	}
	m.parts = append(m.parts, wrap(layerDRAM, sys.Memory))
	return m
}

func cmpMachine(sys *hier.CMPSystem) *machine {
	m := &machine{
		kind:     sys.Kind,
		prewarm:  sys.Prewarm,
		collect:  sys.Collect,
		progress: sys.MinCommitted,
		width:    sys.Cores[0].MaxCommitPerCycle(),
	}
	for _, c := range sys.Cores {
		m.parts = append(m.parts, wrap(layerCPU, c))
	}
	for _, c := range sys.L1s {
		m.parts = append(m.parts, wrap(layerCache, c))
	}
	for _, c := range sys.L2s {
		m.parts = append(m.parts, wrap(layerCache, c))
	}
	for _, f := range sys.Fabrics {
		m.parts = append(m.parts, wrap(layerLNUCA, f))
	}
	m.parts = append(m.parts, wrap(layerArbiter, sys.Arb))
	if sys.L3 != nil {
		m.parts = append(m.parts, wrap(layerCache, sys.L3))
	}
	if sys.DN != nil {
		m.parts = append(m.parts, wrap(layerDNUCA, sys.DN))
	}
	m.parts = append(m.parts, wrap(layerDRAM, sys.Memory))
	return m
}

// build assembles the cell's machine the way the experiment harness
// does, wrapped for tracing.
func (c kernelCell) build(seed uint64) (*machine, error) {
	if c.mix != nil {
		profs := make([]workload.Profile, len(c.mix.Benchmarks))
		for i, name := range c.mix.Benchmarks {
			p, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("benchmark %s is not in the catalog", name)
			}
			profs[i] = p
		}
		sys, err := hier.BuildCMP(c.mix.Kind, profs, hier.CMPOptions{LNUCALevels: c.mix.Levels, Seed: seed})
		if err != nil {
			return nil, err
		}
		return cmpMachine(sys), nil
	}
	sys, err := hier.Build(c.spec.Kind, c.bench, hier.Options{
		LNUCALevels: c.spec.Levels, Seed: seed, MaxInstr: c.mode.Warmup + c.mode.Measure,
	})
	if err != nil {
		return nil, err
	}
	return singleMachine(sys), nil
}

// kernelTrace accumulates a traced pass over all cells of a workload.
type kernelTrace struct {
	clockNS int64

	runNS              int64 // wall inside Kernel.Run
	layerNS            [numLayers]float64
	kernel             sim.KernelStats
	mallocs            uint64 // heap allocations during measured windows
	measureCycles      uint64
	buildMS, prewarmMS [4][]float64
	collectUS, deltaUS []float64
	wall               time.Duration
	lastStats          *stats.Set
}

// clamp sizes a chunk so a core with rem instructions of budget left
// cannot overshoot the window boundary by a commit width or more — the
// experiment harness's rule, which the traced loop must share for its
// statistics to equal an untraced run's.
func clamp(chunk, rem uint64, width int) uint64 {
	bound := rem / uint64(max(width, 1))
	return max(1, min(bound, chunk))
}

// run drives one cell on the harness's own kernel: the experiment
// harness's build, functional prewarm, warmup window and measured
// window, with every component behind a timedComponent and a span
// around each phase. Like kernelCell.run it yields errStalled for a
// machine that stalls.
func (kt *kernelTrace) run(e *env, parent int, c kernelCell, seed uint64) (cellResult, error) {
	var out cellResult
	cellStart := time.Now()
	cellSpan := e.spans.open(parent, "exp.cell", cellStart)
	defer func() { e.spans.close(cellSpan, time.Now()) }()

	m, err := c.build(seed)
	built := time.Now()
	if err != nil {
		return out, err
	}
	e.spans.add(cellSpan, "hier.build", cellStart, built)
	kt.buildMS[m.kind] = append(kt.buildMS[m.kind], built.Sub(cellStart).Seconds()*1e3)

	k := sim.NewKernel()
	for _, p := range m.parts {
		k.MustRegister(p)
	}
	m.prewarm()
	warmed := time.Now()
	e.spans.add(cellSpan, "hier.prewarm", built, warmed)
	kt.prewarmMS[m.kind] = append(kt.prewarmMS[m.kind], warmed.Sub(built).Seconds()*1e3)

	const chunk = 2048
	total := c.mode.Warmup + c.mode.Measure
	// advance runs the kernel until the slowest core has committed
	// target instructions (or, single-core, the core stopped the kernel),
	// or stallReports chunks in a row committed nothing.
	advance := func(target uint64) error {
		for idle := 0; m.progress() < target && !k.Stopped(); {
			before := m.progress()
			n := uint64(chunk)
			if c.mix != nil || target < total {
				n = clamp(chunk, target-before, m.width)
			}
			start := time.Now()
			k.Run(n)
			kt.runNS += time.Since(start).Nanoseconds()
			if m.progress() != before {
				idle = 0
			} else if idle++; idle >= stallReports {
				return errStalled
			}
		}
		return nil
	}
	collect := func() *stats.Set {
		start := time.Now()
		set := m.collect()
		end := time.Now()
		e.spans.add(cellSpan, "hier.collect", start, end)
		kt.collectUS = append(kt.collectUS, end.Sub(start).Seconds()*1e6)
		return set
	}

	if err := advance(c.mode.Warmup); err != nil {
		return out, err
	}
	startSet := collect()
	warmupEnd := time.Now()
	e.spans.add(cellSpan, "exp.warmup", warmed, warmupEnd)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cyclesBefore := k.Cycle()
	measureStart := time.Now()
	if err := advance(total); err != nil {
		return out, err
	}
	measureEnd := time.Now()
	runtime.ReadMemStats(&after)
	kt.mallocs += after.Mallocs - before.Mallocs
	kt.measureCycles += k.Cycle() - cyclesBefore
	e.spans.add(cellSpan, "exp.measure", measureStart, measureEnd)
	endSet := collect()

	deltaStart := time.Now()
	delta := stats.Delta(endSet, startSet)
	kt.deltaUS = append(kt.deltaUS, time.Since(deltaStart).Seconds()*1e6)
	kt.lastStats = delta

	ks := k.Stats()
	kt.kernel.Cycle += ks.Cycle
	kt.kernel.Stepped += ks.Stepped
	kt.kernel.FastForwards += ks.FastForwards
	kt.kernel.SkippedCycles += ks.SkippedCycles
	kt.kernel.EvalsSkipped += ks.EvalsSkipped
	kt.kernel.ActiveEvals += ks.ActiveEvals
	for _, p := range m.parts {
		kt.layerNS[p.layer] += p.eval.estimate(kt.clockNS) + p.commit.estimate(kt.clockNS) + p.nextEvent.estimate(kt.clockNS)
	}
	out.wall = time.Since(cellStart)
	out.digest, err = statsDigest(delta)
	return out, err
}

// componentNS is the host time attributed to components, all layers.
func (kt *kernelTrace) componentNS() float64 {
	var sum float64
	for _, ns := range kt.layerNS {
		sum += ns
	}
	return sum
}

// runKernelTraced produces a kernel workload's per-layer numbers: one
// untraced pass through the experiment harness (the reference for the
// statistics and for the tracing overhead), one traced pass on the
// harness's own kernel, then the direct-call micro-sections of the
// layers this workload exercises.
func runKernelTraced(e *env, name string, cells []kernelCell) (*report, error) {
	rep := newReport(name)
	root := e.spans.open(0, name, time.Now())
	defer func() { e.spans.close(root, time.Now()) }()

	allocBefore := totalAllocMB()
	plainStart := time.Now()
	ref, err := referencePass(e, rep, cells)
	if err != nil {
		return nil, err
	}
	// The cells' own walls: tries on a seed whose machine stalls are not
	// part of the untraced pass the traced one is compared with.
	plainWall := fastestSum([][]time.Duration{walls(ref)})
	rep.metrics["lightnuca.alloc_mb_per_point"] = (totalAllocMB() - allocBefore) / float64(len(cells))
	e.spans.add(root, "pass.untraced", plainStart, time.Now())
	rep.statsSHA256 = workloadDigest(ref)

	kt := &kernelTrace{clockNS: clockCostNS()}
	tracedStart := time.Now()
	passSpan := e.spans.open(root, "pass.traced", tracedStart)
	for i, c := range cells {
		rep.attempted++
		r, err := kt.run(e, passSpan, c, e.seed)
		switch {
		case err != nil:
			rep.fail(1, "traced %s: %v", c.label(), err)
		case r.digest != ref[i].digest:
			rep.fail(1, "traced %s: statistics differ from the untraced run's", c.label())
		}
	}
	kt.wall = time.Since(tracedStart)
	e.spans.close(passSpan, tracedStart.Add(kt.wall))

	m := rep.metrics
	cycles := float64(kt.kernel.Cycle)
	comp := kt.componentNS()
	m["benchmarks.trace_overhead_pct"] = 100 * (ratio(kt.wall.Seconds(), plainWall.Seconds()) - 1)
	m["sim.ns_per_cycle"] = ratio(float64(kt.runNS), cycles)
	m["sim.ns_per_stepped_cycle"] = ratio(float64(kt.runNS), float64(kt.kernel.Stepped))
	m["sim.kernel_self_share"] = 1 - ratio(comp, float64(kt.runNS))
	m["sim.allocs_per_cycle"] = ratio(float64(kt.mallocs), float64(kt.measureCycles))
	m["sim.skip_ratio"] = kt.kernel.SkipRatio()
	m["sim.avg_active_components"] = kt.kernel.AvgActive()
	m["sim.fastforwards"] = float64(kt.kernel.FastForwards)
	m["sim.evals_skipped"] = float64(kt.kernel.EvalsSkipped)
	m["cpu.core_share"] = ratio(kt.layerNS[layerCPU], comp)
	m["cpu.core_ns_per_cycle"] = ratio(kt.layerNS[layerCPU], cycles)
	m["cache.ctrl_share"] = ratio(kt.layerNS[layerCache], comp)
	m["cache.ctrl_ns_per_cycle"] = ratio(kt.layerNS[layerCache], cycles)
	m["lnuca.fabric_share"] = ratio(kt.layerNS[layerLNUCA], comp)
	m["lnuca.fabric_ns_per_cycle"] = ratio(kt.layerNS[layerLNUCA], cycles)
	m["dnuca.share"] = ratio(kt.layerNS[layerDNUCA], comp)
	m["dnuca.ns_per_cycle"] = ratio(kt.layerNS[layerDNUCA], cycles)
	m["mem.dram_share"] = ratio(kt.layerNS[layerDRAM], comp)
	m["mem.arbiter_share"] = ratio(kt.layerNS[layerArbiter], comp)
	for kind, suffix := range kindSuffix {
		m["hier.build_ms."+suffix] = median(kt.buildMS[kind])
		m["hier.prewarm_ms."+suffix] = median(kt.prewarmMS[kind])
	}
	m["hier.collect_us"] = median(kt.collectUS)
	m["stats.delta_us"] = median(kt.deltaUS)

	simulatedCounts(m, ref, cells, float64(kt.kernel.Cycle))
	phaseShares(m, ref, plainWall)
	if err := kernelMicro(e, rep, root, cells, ref, kt); err != nil {
		return nil, err
	}
	m["lightnuca.peak_rss_mb"] = peakRSSMB()
	return rep, nil
}

// simulatedCounts reports what the modelled machines did — counts that
// repeat exactly for a seed, so two commits compare exactly. They are
// summed over the cells of the untraced pass; a mix's per-core counters
// (c<i>.-prefixed) are summed over its cores.
func simulatedCounts(m map[string]float64, ref []cellResult, cells []kernelCell, cycles float64) {
	sum := func(keys ...string) float64 {
		var n uint64
		for i, r := range ref {
			if r.stats == nil {
				continue
			}
			for _, key := range keys {
				n += r.stats.Counter(key)
				if mix := cells[i].mix; mix != nil {
					for core := range mix.Benchmarks {
						n += r.stats.Counter(fmt.Sprintf("c%d.%s", core, key))
					}
				}
			}
		}
		return float64(n)
	}
	m["cpu.committed"] = float64(totalInstr(ref))
	m["cache.l1_read_hit_ratio"] = ratio(sum("l1.read_hits"), sum("l1.read_hits", "l1.read_misses"))
	m["cache.l3_read_misses"] = sum("l3.read_misses")
	m["lnuca.searches"] = sum("ln.searches")
	m["lnuca.global_misses"] = sum("ln.global_misses")
	m["lnuca.transport_ratio"] = ratio(sum("ln.transport_actual_cycles"), sum("ln.transport_min_cycles"))
	m["dnuca.bank_accesses"] = sum("dn.bank_accesses")
	m["dnuca.promotions"] = sum("dn.promotions")
	m["dnuca.net_flit_hops"] = sum("dn.net_flit_hops")
	m["noc.flit_hops_per_cycle"] = ratio(sum("dn.net_flit_hops"), cycles)
	m["mem.reads"] = sum("mem.reads")

	// Per-class IPC and the LN3 gain over the set's baseline are defined
	// on single-core cells only.
	var singles []exp.Result
	var allInt, allFP []float64
	for _, r := range ref {
		if r.single == nil {
			continue
		}
		singles = append(singles, *r.single)
		if r.single.Bench.Class == workload.Int {
			allInt = append(allInt, r.single.IPC)
		} else {
			allFP = append(allFP, r.single.IPC)
		}
	}
	if len(singles) == 0 {
		return
	}
	base, ln3 := cells[0].spec, cells[0].spec
	for _, c := range cells {
		if c.spec.Levels == 3 {
			ln3 = c.spec
		}
	}
	baseInt, baseFP := exp.HarmonicIPC(singles, base)
	ln3Int, ln3FP := exp.HarmonicIPC(singles, ln3)
	m["cpu.ipc_hmean_int"] = stats.HarmonicMean(allInt)
	m["cpu.ipc_hmean_fp"] = stats.HarmonicMean(allFP)
	m["exp.ln3_int_gain_pct"] = stats.SpeedupPercent(ln3Int, baseInt)
	m["exp.ln3_fp_gain_pct"] = stats.SpeedupPercent(ln3FP, baseFP)
}

// phaseShares splits the untraced pass's wall by the phases the
// experiment harness reports for each run.
func phaseShares(m map[string]float64, ref []cellResult, passWall time.Duration) {
	var build, warmup, measure, wall float64
	for _, r := range ref {
		if r.phases == nil {
			continue
		}
		build += r.phases.BuildSeconds
		warmup += r.phases.WarmupSeconds
		measure += r.phases.MeasureSeconds
		wall += r.wall.Seconds()
	}
	m["exp.build_share"] = ratio(build, wall)
	m["exp.warmup_share"] = ratio(warmup, wall)
	m["exp.measure_share"] = ratio(measure, wall)
	m["exp.pass_median_mips"] = ratio(float64(totalInstr(ref))/1e6, passWall.Seconds())
}

// sortedKinds lists the hierarchy kinds a workload's cells build.
func sortedKinds(cells []kernelCell) []hier.Kind {
	seen := map[hier.Kind]bool{}
	for _, c := range cells {
		kind := c.spec.Kind
		if c.mix != nil {
			kind = c.mix.Kind
		}
		seen[kind] = true
	}
	var kinds []hier.Kind
	for k := range seen {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}
