package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric: BENCHMARK.json records exactly these
// fields (per-layer metrics carry no bound), and the package test pins
// the two against each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the repository feels, measured
// with tracing off. Every workload reports all four; README.md says
// what each means where it is not the workload's own subject, and why
// every bound is the widest the contract allows (the reference box's
// speed moves by 13-30 % in phases longer than a run).
var endToEnd = []metricDef{
	{"sim_mips", "Minstr/s", "higher", 0.25},
	{"points_per_s", "1/s", "higher", 0.25},
	{"warm_submit_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// layerMetric is a per-layer metric: it has no bound.
func layerMetric(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// kindSuffix names the four Fig. 1 hierarchies in metric names.
var kindSuffix = [4]string{"conventional", "ln_l3", "dn_4x8", "ln_dn_4x8"}

// perLayer are the traced run's metrics, layer = module name. A layer
// the selected workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		layerMetric("sim.ns_per_cycle", "ns", "lower"),
		layerMetric("sim.ns_per_stepped_cycle", "ns", "lower"),
		layerMetric("sim.kernel_self_share", "ratio", "lower"),
		layerMetric("sim.allocs_per_cycle", "count", "lower"),
		layerMetric("sim.skip_ratio", "ratio", "higher"),
		layerMetric("sim.avg_active_components", "count", "lower"),
		layerMetric("sim.fastforwards", "count", "higher"),
		layerMetric("sim.evals_skipped", "count", "higher"),
	}
	for _, k := range kindSuffix {
		defs = append(defs, layerMetric("sim.step_ns."+k, "ns", "lower"))
	}
	defs = append(defs,
		layerMetric("cpu.core_share", "ratio", "lower"),
		layerMetric("cpu.core_ns_per_cycle", "ns", "lower"),
		layerMetric("cpu.ipc_hmean_int", "count", "higher"),
		layerMetric("cpu.ipc_hmean_fp", "count", "higher"),
		layerMetric("cpu.committed", "count", "higher"),
		layerMetric("cache.ctrl_share", "ratio", "lower"),
		layerMetric("cache.ctrl_ns_per_cycle", "ns", "lower"),
		layerMetric("cache.l1_read_hit_ratio", "ratio", "higher"),
		layerMetric("cache.l3_read_misses", "count", "lower"),
		layerMetric("lnuca.fabric_share", "ratio", "lower"),
		layerMetric("lnuca.fabric_ns_per_cycle", "ns", "lower"),
		layerMetric("lnuca.geometry_build_us", "us", "lower"),
		layerMetric("lnuca.searches", "count", "lower"),
		layerMetric("lnuca.global_misses", "count", "lower"),
		layerMetric("lnuca.transport_ratio", "ratio", "lower"),
		layerMetric("dnuca.share", "ratio", "lower"),
		layerMetric("dnuca.ns_per_cycle", "ns", "lower"),
		layerMetric("dnuca.cmp4_ns_per_cycle", "ns", "lower"),
		layerMetric("dnuca.bank_accesses", "count", "lower"),
		layerMetric("dnuca.promotions", "count", "higher"),
		layerMetric("dnuca.net_flit_hops", "count", "lower"),
		layerMetric("noc.flit_hops_per_cycle", "count", "lower"),
		layerMetric("mem.dram_share", "ratio", "lower"),
		layerMetric("mem.arbiter_share", "ratio", "lower"),
		layerMetric("mem.reads", "count", "lower"),
	)
	for _, k := range kindSuffix {
		defs = append(defs, layerMetric("hier.build_ms."+k, "ms", "lower"))
	}
	for _, k := range kindSuffix {
		defs = append(defs, layerMetric("hier.prewarm_ms."+k, "ms", "lower"))
	}
	return append(defs,
		layerMetric("hier.collect_us", "us", "lower"),
		layerMetric("workload.gen_ns_per_op", "ns", "lower"),
		layerMetric("exp.build_share", "ratio", "lower"),
		layerMetric("exp.warmup_share", "ratio", "lower"),
		layerMetric("exp.measure_share", "ratio", "higher"),
		layerMetric("exp.pass_median_mips", "Minstr/s", "higher"),
		layerMetric("exp.ln3_int_gain_pct", "%", "higher"),
		layerMetric("exp.ln3_fp_gain_pct", "%", "higher"),
		layerMetric("trace.encode_ns_per_op", "ns", "lower"),
		layerMetric("trace.decode_ns_per_op", "ns", "lower"),
		layerMetric("trace.replay_vs_live_ratio", "ratio", "lower"),
		layerMetric("stats.set_json_roundtrip_us", "us", "lower"),
		layerMetric("stats.delta_us", "us", "lower"),
		layerMetric("orchestrator.request_key_us", "us", "lower"),
		layerMetric("orchestrator.submit_warm_us", "us", "lower"),
		layerMetric("orchestrator.cache_get_mem_us", "us", "lower"),
		layerMetric("orchestrator.cache_get_disk_us", "us", "lower"),
		layerMetric("orchestrator.cache_put_disk_us", "us", "lower"),
		layerMetric("orchestrator.journal_submit_delta_us", "us", "lower"),
		layerMetric("orchestrator.http_submit_warm_us", "us", "lower"),
		layerMetric("orchestrator.http_sweep_status_ms", "ms", "lower"),
		layerMetric("orchestrator.response_bytes_per_point", "B", "lower"),
		layerMetric("orchestrator.queue_wait_p50_ms", "ms", "lower"),
		layerMetric("orchestrator.job_run_p50_ms", "ms", "lower"),
		layerMetric("fleet.dispatch_overhead_p50_ms", "ms", "lower"),
		layerMetric("fleet.worker_busy_share", "ratio", "higher"),
		layerMetric("fleet.lease_rtt_us", "us", "lower"),
		layerMetric("fleet.heartbeat_rtt_us", "us", "lower"),
		layerMetric("fleet.complete_rtt_us", "us", "lower"),
		layerMetric("fleet.stub_points_per_s", "1/s", "higher"),
		layerMetric("fleet.points_per_s_1w", "1/s", "higher"),
		layerMetric("fleet.leases_granted", "count", "lower"),
		layerMetric("lightnuca.client_run_warm_p99_ms", "ms", "lower"),
		layerMetric("lightnuca.client_sweep_warm_ms", "ms", "lower"),
		layerMetric("lightnuca.local_run_warm_us", "us", "lower"),
		layerMetric("lightnuca.local_sweep_points_per_s", "1/s", "higher"),
		layerMetric("lightnuca.peak_rss_mb", "MB", "lower"),
		layerMetric("lightnuca.alloc_mb_per_point", "MB", "lower"),
		layerMetric("obs.tracing_overhead_pct", "%", "lower"),
		layerMetric("obs.spans_per_point", "count", "lower"),
		layerMetric("obs.scrape_ms", "ms", "lower"),
		layerMetric("atomicfile.write_us", "us", "lower"),
		layerMetric("benchmarks.trace_overhead_pct", "%", "lower"),
	)
}()

// report is one workload's outcome: its metric values by name, the
// operations it attempted and how many of them failed a check, and the
// statistics digest two commits compare.
type report struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]float64
	// statsSHA256 digests every simulated statistic the workload
	// produced; a change meant only to speed the simulator up must leave
	// it as it was.
	statsSHA256 string
	// notes say which check failed, and carry the sample counts behind
	// the percentiles.
	notes []string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: make(map[string]float64)}
}

// fail counts n failed operations and records why.
func (r *report) fail(n int, format string, args ...interface{}) {
	r.failed += n
	if len(r.notes) < 20 { // a broken build fails every op the same way
		r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// correct reports whether every attempted operation passed its checks.
func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the report for people — every metric by name with its
// unit, the digest, the notes — and then the result line, which carries
// exactly the metrics of defs (a name the workload did not set is 0).
func (r *report) print(w io.Writer, defs []metricDef) error {
	line := resultLine{
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v := r.metrics[d.Name]
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-14s %-40s %14.6g %s\n", r.workload, d.Name, v, d.Unit)
	}
	var stray []string
	for name := range r.metrics {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("%s set metrics BENCHMARK.json does not name: %v", r.workload, stray)
	}
	fmt.Fprintf(w, "%-14s stats_sha256 %s\n", r.workload, r.statsSHA256)
	fmt.Fprintf(w, "%-14s attempted %d failed %d (model unvalidated, no error figure: the repository holds no reference results)\n",
		r.workload, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-14s %s\n", r.workload, n)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
