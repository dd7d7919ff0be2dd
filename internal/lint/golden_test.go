package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// RunGolden is the analysistest analogue: it loads
// testdata/src/<importPath> as a package (resolving imports against
// testdata/src first, then the standard library), runs the analyzers,
// and compares the surviving diagnostics against the package's
// "// want" annotations:
//
//	x := make([]int, 0) // want `make in .* allocates`
//
// Each quoted regexp on a line must be matched by exactly one
// diagnostic reported on that line, and every diagnostic must be
// expected. //lnuca:allow suppression runs first, so a golden file can
// also prove a finding is suppressible (annotate it and expect
// nothing).
func RunGolden(t *testing.T, importPath string, analyzers ...*Analyzer) {
	t.Helper()
	runGolden(t, []string{importPath}, analyzers)
}

// runGolden is RunGolden over several testdata packages analyzed in one
// run, for a check that reads across package lines. Their file names
// must differ: a want is matched by base name and line.
func runGolden(t *testing.T, importPaths []string, analyzers []*Analyzer) {
	t.Helper()
	var pkgs []*Package
	var wants []wantAnnotation
	for _, path := range importPaths {
		pkg, err := LoadDir(filepath.Join("testdata", "src"), path)
		if err != nil {
			t.Fatalf("loading testdata package %s: %v", path, err)
		}
		w, err := collectWants(pkg.Dir)
		if err != nil {
			t.Fatalf("parsing want annotations in %s: %v", pkg.Dir, err)
		}
		pkgs, wants = append(pkgs, pkg), append(wants, w...)
	}
	diags, _, err := Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %v: %v", importPaths, err)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if matched[i] || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) || w.re.MatchString("["+d.Analyzer+"] "+d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s",
				filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}
}

type wantAnnotation struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantPatternRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants scans every Go file in dir for "// want" annotations.
// Patterns are quoted regexps (backquoted or double-quoted); several on
// one line expect several diagnostics.
func collectWants(dir string) ([]wantAnnotation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []wantAnnotation
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pats := wantPatternRe.FindAllString(m[1], -1)
			if len(pats) == 0 {
				return nil, fmt.Errorf("%s:%d: want annotation with no quoted pattern", name, i+1)
			}
			for _, p := range pats {
				var pat string
				if p[0] == '`' {
					pat = p[1 : len(p)-1]
				} else if u, err := strconv.Unquote(p); err == nil {
					pat = u
				} else {
					return nil, fmt.Errorf("%s:%d: bad want pattern %s", name, i+1, p)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", name, i+1, pat, err)
				}
				wants = append(wants, wantAnnotation{file: name, line: i + 1, re: re})
			}
		}
	}
	return wants, nil
}
