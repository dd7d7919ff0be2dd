// Command lnucalint runs the repository's static-analysis suite
// (internal/lint): hotalloc, determinism, schemastable, and obsnames —
// the machine-checked versions of the invariants the benchmarks and
// golden tests pin at runtime.
//
// Linting, over import patterns (the CI entry point):
//
//	go run ./cmd/lnucalint ./...
//
// Regenerating the schema manifest after a deliberate, version-bumped
// schema change (the go:generate target of internal/lint):
//
//	go run ./cmd/lnucalint -write-schemas internal/lint/schemas.json
//
// Exit status: 0 clean, 1 usage or internal failure, 2 findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	writeSchemas := flag.String("write-schemas", "", "recompute the schema manifest and write it to `path` instead of linting")
	quiet := flag.Bool("q", false, "suppress the suppression-count summary")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lnucalint [-write-schemas path] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers, err := lint.RepoAnalyzers()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *writeSchemas != "" {
		return runWriteSchemas(*writeSchemas)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags, suppressed, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if !*quiet && suppressed > 0 {
		fmt.Fprintf(os.Stderr, "lnucalint: %d finding(s) suppressed by //lnuca:allow directives\n", suppressed)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lnucalint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 2
	}
	return 0
}

func runWriteSchemas(path string) int {
	// Load by module-path pattern so the generator sees every schema
	// package no matter which directory `go generate` runs it from.
	pkgs, err := lint.Load(".", "repro/...")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	manifest, err := lint.BuildManifest(pkgs, lint.RepoSchemaSpecs())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	data, err := lint.WriteManifest(manifest)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "lnucalint: wrote %s (%d schemas)\n", path, len(manifest))
	return 0
}
