// Package lint is the repository's static-analysis suite: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis that
// machine-checks the invariants the simulator's tests catch only after
// the fact, or only by luck — the 0 allocs/cycle hot loop, bit-identical
// determinism for content-addressed caching and trace replay, and the
// lnuca_* metric naming rules of the observability layer. The frozen
// schemas (lnuca-run-v1, the job key, lnuca-trace-v1) are pinned at run
// time instead, by orchestrator.TestFrozenSchemas and the key and bytes
// goldens.
//
// The API mirrors go/analysis on purpose (Analyzer, Pass, Diagnostic,
// "// want" golden tests) so that, should the x/tools dependency ever
// become available, the analyzers port mechanically. Packages are
// loaded with `go list -export -json`: the target package is
// type-checked from source while its dependencies are imported from the
// compiler's export data, exactly the unitchecker split — fast, and
// fully offline.
//
// Findings are suppressed, never silently, with
//
//	//lnuca:allow(analyzer) reason
//
// directives (see allow.go). A directive with a missing reason or an
// unknown analyzer name is itself a lint error.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lnuca:allow(name) suppressions. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check. A non-nil error aborts the whole lint run
	// (it means the analyzer itself failed, not that code is bad).
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Program is every package of the run, for a check that crosses
	// package lines (no go/analysis counterpart).
	Program []*Package
	// Report records a finding. The driver attributes it to
	// Pass.Analyzer and applies //lnuca:allow suppression afterwards.
	Report func(pos token.Pos, format string, args ...any)
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics, sorted by position: suppression directives have been
// applied, and any malformed directive (missing reason, unknown
// analyzer) has been converted into a diagnostic of the synthetic
// "allow" analyzer. Suppressed counts the findings silenced by valid
// directives, so callers can surface how much is being allowed.
func Run(pkgs []*Package, analyzers []*Analyzer) (diags []Diagnostic, suppressed int, err error) {
	known := make(map[string]bool, len(analyzers)+1)
	known[AllowName] = true
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			a := a
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Program:  pkgs,
			}
			pass.Report = func(pos token.Pos, format string, args ...any) {
				raw = append(raw, Diagnostic{
					Pos:      pkg.Fset.Position(pos),
					Analyzer: a.Name,
					Message:  fmt.Sprintf(format, args...),
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, 0, fmt.Errorf("lint: analyzer %s failed on %s: %w", a.Name, pkg.Path, err)
			}
		}
		allows, allowDiags := collectAllows(pkg, known)
		diags = append(diags, allowDiags...)
		for _, d := range raw {
			if allows.covers(d) {
				suppressed++
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, suppressed, nil
}
