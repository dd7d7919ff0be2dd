package lint

// DeterminismPackages is the audited set: every package whose output
// lands in a simulation result, the job key (orchestrator.KeySchema), a
// trace identity (lnuca-trace-v1), or the statistics a cache entry
// stores. Service packages that only schedule, lease, persist or inject
// faults are not in it: wall-clock time is their point, and what they
// carry is pinned byte for byte at run time. Wall-clock telemetry in an
// audited package carries an explicit //lnuca:allow(determinism) with
// its reason.
func DeterminismPackages() []string {
	return []string{
		"repro/internal/sim",
		"repro/internal/cpu",
		"repro/internal/cache",
		"repro/internal/dnuca",
		"repro/internal/mem",
		"repro/internal/noc",
		"repro/internal/hier",
		"repro/internal/exp",
		"repro/internal/trace",
		"repro/internal/lnuca",
		"repro/internal/stats",
		"repro/internal/workload",
		"repro/internal/orchestrator",
		"repro/internal/power",
		"repro/internal/nocpower",
		"repro/internal/sram",
		"repro/internal/area",
		"repro/internal/tech",
		"repro/internal/timing",
	}
}

// RepoAnalyzers returns the full suite configured for this repository.
func RepoAnalyzers() []*Analyzer {
	return []*Analyzer{
		HotAlloc(),
		Determinism(DeterminismPackages()...),
	}
}
