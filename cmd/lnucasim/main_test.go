package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	lightnuca "repro"
	"repro/internal/workload"
)

// cachedCount wraps a Runner and counts the results it served without
// simulating.
type cachedCount struct {
	lightnuca.Runner
	runs, cached atomic.Int32
}

func (c *cachedCount) Run(ctx context.Context, req lightnuca.Request) (lightnuca.Result, error) {
	res, err := c.Runner.Run(ctx, req)
	c.runs.Add(1)
	if res.Cached {
		c.cached.Add(1)
	}
	return res, err
}

// TestFigureSetThroughTheCache runs the Fig. 4 set (Fig. 4(a), 4(b) and
// Table III) over two benchmarks against a -cache directory twice, each
// time with a fresh runner as a new invocation would have: the second
// pass prints the same tables from the stored JSON and simulates nothing.
func TestFigureSetThroughTheCache(t *testing.T) {
	var benches []workload.Profile
	for _, name := range []string{"429.mcf", "482.sphinx3"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		benches = append(benches, p)
	}
	want := map[string]bool{"fig4a": true, "fig4b": true, "table3": true}
	dir := t.TempDir()
	pass := func() (string, *cachedCount) {
		t.Helper()
		runner := &cachedCount{Runner: &lightnuca.Local{CacheDir: dir}}
		var out bytes.Buffer
		if err := printExperiments(context.Background(), &out, runner, want, benches, "quick", 1); err != nil {
			t.Fatal(err)
		}
		return out.String(), runner
	}

	cold, first := pass()
	if first.runs.Load() != 8 || first.cached.Load() != 0 {
		t.Fatalf("cold pass: %d runs, %d cached, want 8 and 0", first.runs.Load(), first.cached.Load())
	}
	for _, title := range []string{"Fig 4(a)", "Fig 4(b)", "Table III", "LN4-248KB"} {
		if !strings.Contains(cold, title) {
			t.Errorf("output lacks %q:\n%s", title, cold)
		}
	}
	warm, second := pass()
	if second.runs.Load() != 8 || second.cached.Load() != 8 {
		t.Fatalf("warm pass: %d of %d results cached, want all 8", second.cached.Load(), second.runs.Load())
	}
	if warm != cold {
		t.Fatalf("tables differ between the simulated and the cached pass:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
}

// TestDigestLedgerQuick recomputes the Quick digest ledger — the 224
// figure cells and the 20 named 4-core mixes, simulated into an empty
// store — and requires testdata/digests_quick.txt byte for byte. A
// change that moves a line changes what every store serves for that
// cell: it bumps orchestrator.KeySchema and regenerates both ledgers.
func TestDigestLedgerQuick(t *testing.T) {
	want, err := os.ReadFile("testdata/digests_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var got bytes.Buffer
	if err := printDigests(context.Background(), &got, &lightnuca.Local{CacheDir: dir}, dir, workload.Suite(), "quick", 1); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	var moved []string
	for _, line := range strings.Split(got.String(), "\n") {
		if !bytes.Contains(want, []byte(line+"\n")) {
			moved = append(moved, line)
		}
	}
	t.Fatalf("stored results moved (%d lines are new):\n%s\nbump orchestrator.KeySchema, then regenerate with\n"+
		"  go run ./cmd/lnucasim -exp digests > cmd/lnucasim/testdata/digests_quick.txt\n"+
		"  go run ./cmd/lnucasim -exp digests -mode full > cmd/lnucasim/testdata/digests_full.txt",
		len(moved), strings.Join(moved, "\n"))
}
