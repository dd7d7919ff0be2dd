package lint

import (
	"strings"
	"testing"
)

// TestAllowGolden: well-formed directives silence exactly the named
// analyzer on exactly the covered span. HotAlloc is in the run so that
// "hotalloc" is a known name for the wrong-analyzer case.
func TestAllowGolden(t *testing.T) {
	RunGolden(t, "allowok", Determinism(), HotAlloc())
}

// TestAllowBad: a directive with a missing reason, an unknown analyzer
// name, or no parseable shape at all is itself a finding — and never
// suppresses the violation beneath it. (Asserted programmatically: a
// "// want" comment appended to a directive line would be captured as
// the directive's reason and change what is under test.)
func TestAllowBad(t *testing.T) {
	pkg, err := LoadDir("testdata/src", "allowbad")
	if err != nil {
		t.Fatalf("loading allowbad: %v", err)
	}
	diags, suppressed, err := Run([]*Package{pkg}, []*Analyzer{Determinism()})
	if err != nil {
		t.Fatal(err)
	}
	if suppressed != 0 {
		t.Errorf("broken directives suppressed %d finding(s), want 0", suppressed)
	}
	var allowMsgs, detCount int
	wantAllow := []string{
		`suppression of "determinism" has no reason`,
		`suppression names unknown analyzer "determinisim"`,
		`malformed suppression`,
	}
	seen := map[string]bool{}
	for _, d := range diags {
		switch d.Analyzer {
		case AllowName:
			allowMsgs++
			for _, w := range wantAllow {
				if strings.Contains(d.Message, w) {
					seen[w] = true
				}
			}
		case "determinism":
			detCount++
		}
	}
	if allowMsgs != len(wantAllow) {
		t.Errorf("got %d allow diagnostics, want %d: %v", allowMsgs, len(wantAllow), diags)
	}
	for _, w := range wantAllow {
		if !seen[w] {
			t.Errorf("no allow diagnostic matching %q", w)
		}
	}
	// All three time.Now reads must survive their broken directives.
	if detCount != 3 {
		t.Errorf("got %d determinism findings, want 3 (broken directives must not suppress)", detCount)
	}
}

// TestRepoAnalyzers: the configured suite has both analyzers, with
// names unique and usable in directives.
func TestRepoAnalyzers(t *testing.T) {
	want := map[string]bool{"hotalloc": true, "determinism": true}
	for _, a := range RepoAnalyzers() {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		delete(want, a.Name)
	}
	for name := range want {
		t.Errorf("suite missing analyzer %q", name)
	}
}
