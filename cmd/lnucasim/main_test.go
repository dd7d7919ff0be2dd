package main

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	lightnuca "repro"
	"repro/internal/workload"
)

// TestValidateTraceFlags covers the lnucasim flag path of the trace
// validation satellite: contradictory -record/-trace combinations are
// rejected at parse time with errors naming the conflict.
func TestValidateTraceFlags(t *testing.T) {
	cases := []struct {
		name           string
		record, replay string
		cores          int
		benches        string
		set            []string
		wantErr        bool
		wantMention    string
	}{
		{name: "plain-experiments", wantErr: false},
		{name: "cmp-mode", cores: 4, wantErr: false},
		{name: "record-ok", record: "out.lntrace", benches: "400.perlbench", wantErr: false},
		{name: "record-with-seed", record: "out.lntrace", benches: "400.perlbench", set: []string{"seed", "mode"}, wantErr: false},
		{name: "replay-ok", replay: "in.lntrace", wantErr: false},
		{name: "record-and-replay", record: "a", replay: "b", wantErr: true, wantMention: "exclusive"},
		{name: "record-with-cores", record: "a", benches: "403.gcc", cores: 2, wantErr: true, wantMention: "single-core"},
		{name: "replay-with-cores", replay: "a", cores: 2, wantErr: true, wantMention: "single-core"},
		{name: "replay-with-benches", replay: "a", benches: "403.gcc", wantErr: true, wantMention: "-benches"},
		{name: "replay-with-seed", replay: "a", set: []string{"seed"}, wantErr: true, wantMention: "recorded seed"},
		{name: "replay-with-mode", replay: "a", set: []string{"mode"}, wantErr: true, wantMention: "recorded seed"},
		{name: "replay-with-exp", replay: "a", set: []string{"exp"}, wantErr: true, wantMention: "-exp"},
		{name: "record-with-exp", record: "a", benches: "403.gcc", set: []string{"exp"}, wantErr: true, wantMention: "-exp"},
		{name: "record-without-bench", record: "a", wantErr: true, wantMention: "exactly one"},
		{name: "record-with-bench-list", record: "a", benches: "403.gcc,429.mcf", wantErr: true, wantMention: "exactly one"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range c.set {
				set[f] = true
			}
			err := validateTraceFlags(c.record, c.replay, c.cores, c.benches, set)
			if c.wantErr && err == nil {
				t.Fatal("expected an error")
			}
			if !c.wantErr && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if err != nil && !strings.Contains(err.Error(), c.wantMention) {
				t.Errorf("error %q should mention %q", err, c.wantMention)
			}
		})
	}
}

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
