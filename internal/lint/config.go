package lint

import (
	_ "embed"
)

// schemasJSON is the committed schema manifest. Regenerate with
// `go generate ./internal/lint` after a deliberate, version-bumped
// schema change.
//
//go:embed schemas.json
var schemasJSON []byte

// DeterminismPackages is the audited set: every package whose behaviour
// feeds simulation results, the job key (orchestrator.KeySchema),
// trace identities (lnuca-trace-v1), or stats that land in cache
// entries. Wall-clock telemetry in these packages must carry an
// explicit //lnuca:allow(determinism) with its reason.
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
		"repro/internal/fleet",
		"repro/internal/pqueue",
		"repro/internal/faultinject",
		"repro/internal/atomicfile",
	}
}

// RepoSchemaSpecs names the code behind the three frozen schemas.
func RepoSchemaSpecs() []SchemaSpec {
	return []SchemaSpec{
		{
			// The declarative run schema every front-end shares (PR 3).
			Schema:  "lnuca-run-v1",
			Pkg:     "repro/internal/orchestrator",
			Structs: []string{"Request", "SweepRequest"},
			Consts:  []string{"RequestSchema"},
		},
		{
			// The content-key schema of the result cache: the Job field
			// set, the canon format strings in Job.Key, and the JobResult
			// shape stored in cache entries. Its version is the KeySchema
			// value, so the entry's name carries none and a bump edits
			// only the constant.
			Schema:  "lnuca-job",
			Pkg:     "repro/internal/orchestrator",
			Structs: []string{"Job", "JobResult"},
			Funcs:   []string{"Job.Key"},
			Consts:  []string{"KeySchema"},
		},
		{
			// The trace capture format (PR 5): header provenance fields,
			// the content-hash canon string, magic line and version.
			Schema:  "lnuca-trace-v1",
			Pkg:     "repro/internal/trace",
			Structs: []string{"Header"},
			Funcs:   []string{"contentHash"},
			Consts:  []string{"Schema", "magic"},
		},
	}
}

// RepoAnalyzers returns the full suite configured for this repository.
func RepoAnalyzers() ([]*Analyzer, error) {
	manifest, err := ParseManifest(schemasJSON)
	if err != nil {
		return nil, err
	}
	return []*Analyzer{
		HotAlloc(),
		Determinism(DeterminismPackages()...),
		SchemaStable(manifest, RepoSchemaSpecs()),
		ObsNames(),
	}, nil
}
