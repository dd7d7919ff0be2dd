package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// newInfo returns a types.Info with every map analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList runs `go list -e -deps -export -json` over patterns in dir and
// decodes the package stream.
func goList(dir string, patterns []string) ([]*listedPkg, error) {
	args := []string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard,Module,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		q := p
		pkgs = append(pkgs, &q)
	}
	return pkgs, nil
}

// exportImporter satisfies go/types importing through the compiler's
// export data files discovered by `go list -export`.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Load resolves patterns (e.g. "./...") relative to dir, type-checking
// each matched module package from source while importing dependencies
// from export data. Packages outside the main module (stdlib) are
// loaded as dependencies only, never analyzed.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	// The -deps stream lists dependencies first and the named packages
	// last; module membership tells the analysis targets apart.
	exports := make(map[string]string, len(listed))
	var targets []*listedPkg
	for _, p := range listed {
		if p.Error != nil && p.Error.Err != "" {
			return nil, fmt.Errorf("lint: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Module != nil {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		files := make([]*ast.File, 0, len(t.GoFiles))
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", t.ImportPath, err)
		}
		out = append(out, &Package{
			Path:  t.ImportPath,
			Dir:   t.Dir,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return out, nil
}

// stdExports memoizes the stdlib export-data map used by LoadDir (the
// testdata loader). It is built once per process by listing the
// standard library packages testdata is allowed to import, plus their
// transitive dependencies.
var stdExports struct {
	once sync.Once
	m    map[string]string
	err  error
}

// testdataStdlib is the stdlib surface available to testdata packages.
// Extend as golden files need more; `go list -deps` pulls transitive
// dependencies in automatically.
var testdataStdlib = []string{
	"fmt", "sort", "strings", "time", "math/rand", "strconv", "errors",
	"os", "encoding/json", "crypto/sha256", "encoding/hex", "context",
}

func loadStdExports() (map[string]string, error) {
	stdExports.once.Do(func() {
		listed, err := goList(".", testdataStdlib)
		if err != nil {
			stdExports.err = err
			return
		}
		m := make(map[string]string, len(listed))
		for _, p := range listed {
			if p.Export != "" {
				m[p.ImportPath] = p.Export
			}
		}
		stdExports.m = m
	})
	return stdExports.m, stdExports.err
}

// dirImporter type-checks testdata packages: an import path resolves
// first against root (GOPATH-style testdata/src layout, so golden
// packages can import fake "sim"/"obs" stand-ins), then against the
// stdlib export data.
type dirImporter struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
}

func (di *dirImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(di.root, path)
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := di.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return di.std.Import(path)
}

func (di *dirImporter) load(importPath, dir string) (*Package, error) {
	if p, ok := di.cache[importPath]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(di.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := newInfo()
	conf := types.Config{Importer: di}
	tpkg, err := conf.Check(importPath, di.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &Package{Path: importPath, Dir: dir, Fset: di.fset, Files: files, Types: tpkg, Info: info}
	di.cache[importPath] = p
	return p, nil
}

// LoadDir type-checks one directory of Go files as a package named by
// importPath, resolving imports GOPATH-style against root (so testdata
// packages can import sibling stand-ins) and falling back to the
// standard library. This is the golden-test loader.
func LoadDir(root, importPath string) (*Package, error) {
	std, err := loadStdExports()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	di := &dirImporter{
		root:  root,
		fset:  fset,
		std:   exportImporter(fset, std),
		cache: map[string]*Package{},
	}
	return di.load(importPath, filepath.Join(root, importPath))
}
