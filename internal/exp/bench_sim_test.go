package exp

// Simulator-throughput benchmarks: the wall-clock trajectory CI records
// in BENCH_sim.json. The headline metric is MIPS — simulated committed
// instructions per wall-second — plus the simulated-cycle rate and, for
// the gated kernel, the fraction of cycles the quiescence fast-forward
// skipped. BenchmarkSimFig5QuickGated vs BenchmarkSimFig5QuickUngated is
// the same runs with the same results (the equivalence tests pin
// bit-identity) at different wall-clock; CI checks only that gated is
// not slower, since cheap stepped cycles shrink the gap by design.

import (
	"testing"

	"repro/internal/workload"
)

// benchSuite is the class-balanced subset the Fig. 4/5 quick benchmarks
// use (mirrors the root-package bench harness).
func benchSuite(b *testing.B) []workload.Profile {
	b.Helper()
	var out []workload.Profile
	for _, n := range []string{"403.gcc", "429.mcf", "434.zeusmp", "482.sphinx3"} {
		p, ok := workload.ByName(n)
		if !ok {
			b.Fatalf("missing benchmark %s", n)
		}
		out = append(out, p)
	}
	return out
}

// runSuite runs every spec x benchmark cell serially (serial keeps the
// gated/ungated wall-clock ratio free of scheduler noise) and returns
// committed instructions and simulated cycles.
func runSuite(b *testing.B, specs []Spec, ungated bool) (instr, cycles uint64) {
	b.Helper()
	for _, s := range specs {
		s.Ungated = ungated
		for _, prof := range benchSuite(b) {
			r := RunOne(s, prof, Quick, 1)
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			instr += r.Stats.Counter("core.committed")
			cycles += r.Cycles
		}
	}
	return instr, cycles
}

func reportRates(b *testing.B, instr, cycles uint64) {
	sec := b.Elapsed().Seconds()
	if sec <= 0 {
		return
	}
	b.ReportMetric(float64(instr)/sec/1e6, "MIPS")
	b.ReportMetric(float64(cycles)/sec/1e6, "Mcycles/s")
}

// BenchmarkSimFig5QuickGated runs the Fig. 5 quick-window suite (the
// D-NUCA configuration set) on the activity-gated kernel.
func BenchmarkSimFig5QuickGated(b *testing.B) {
	var instr, cycles uint64
	for i := 0; i < b.N; i++ {
		in, cy := runSuite(b, DNUCASpecs(), false)
		instr += in
		cycles += cy
	}
	reportRates(b, instr, cycles)
}

// BenchmarkSimFig5QuickUngated is the same suite with fast-forwarding
// disabled: the denominator of the gating speedup.
func BenchmarkSimFig5QuickUngated(b *testing.B) {
	var instr, cycles uint64
	for i := 0; i < b.N; i++ {
		in, cy := runSuite(b, DNUCASpecs(), true)
		instr += in
		cycles += cy
	}
	reportRates(b, instr, cycles)
}

// BenchmarkSimFig4Quick tracks the conventional-hierarchy suite on the
// gated kernel, the second leg of the wall-clock trajectory.
func BenchmarkSimFig4Quick(b *testing.B) {
	var instr, cycles uint64
	for i := 0; i < b.N; i++ {
		in, cy := runSuite(b, ConventionalSpecs(), false)
		instr += in
		cycles += cy
	}
	reportRates(b, instr, cycles)
}
