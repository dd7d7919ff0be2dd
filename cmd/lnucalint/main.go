// Command lnucalint runs the repository's static-analysis suite
// (internal/lint): hotalloc, determinism and obsnames, the checks of
// invariants that no run-time pin catches by the line that broke them.
//
// Linting, over import patterns (the CI entry point):
//
//	go run ./cmd/lnucalint ./...
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
	quiet := flag.Bool("q", false, "suppress the suppression-count summary")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lnucalint [-q] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags, suppressed, err := lint.Run(pkgs, lint.RepoAnalyzers())
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
