package exp

import (
	"context"
	"strings"
	"testing"

	"repro/internal/hier"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestOneLoopProgress: every entry point reports through the shared
// loop — progress never moves backwards, the total is constant at
// cores x (warmup+measure), and the last report is exactly (total,
// total): each core's share is clamped to its budget.
func TestOneLoopProgress(t *testing.T) {
	ctx := context.Background()
	prof := mustProfile(t, "403.gcc")
	spec := Spec{Kind: hier.LNUCAL3, Levels: 3}
	_, tr := RecordOneCtx(ctx, spec, prof, traceTestMode, 2, nil)
	if tr == nil {
		t.Fatal("no trace")
	}
	budget := traceTestMode.Warmup + traceTestMode.Measure

	cases := []struct {
		name  string
		cores uint64
		run   func(progress func(done, total uint64)) error
	}{
		{"live", 1, func(p func(done, total uint64)) error {
			return RunOneCtx(ctx, spec, prof, traceTestMode, 2, p).Err
		}},
		{"record", 1, func(p func(done, total uint64)) error {
			res, _ := RecordOneCtx(ctx, spec, prof, traceTestMode, 2, p)
			return res.Err
		}},
		{"replay", 1, func(p func(done, total uint64)) error {
			return ReplayOneCtx(ctx, Spec{Kind: hier.DNUCAOnly}, tr, p).Err
		}},
		{"mix", 2, func(p func(done, total uint64)) error {
			mix := MixSpec{Kind: hier.Conventional, Benchmarks: []string{"403.gcc", "456.hmmer"}}
			return RunMixCtx(ctx, mix, traceTestMode, 2, p).Err
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var last, reports uint64
			want := c.cores * budget
			err := c.run(func(done, total uint64) {
				reports++
				if total != want {
					t.Errorf("report %d: total %d, want %d", reports, total, want)
				}
				if done < last {
					t.Errorf("report %d: progress went backwards, %d after %d", reports, done, last)
				}
				last = done
			})
			if err != nil {
				t.Fatal(err)
			}
			if reports == 0 || last != want {
				t.Fatalf("after %d reports progress ended at (%d,%d), want (%d,%d)", reports, last, want, want, want)
			}
		})
	}
}

// TestReplayTruncatedTraceExhausted: the shared loop leaves on kernel
// stop, not only on the commit target — a trace that ends early, inside
// the warmup window or inside the measured one, yields the "exhausted"
// error instead of spinning towards a target the core can never reach.
func TestReplayTruncatedTraceExhausted(t *testing.T) {
	ctx := context.Background()
	spec := Spec{Kind: hier.Conventional}
	_, tr := RecordOneCtx(ctx, spec, mustProfile(t, "403.gcc"), traceTestMode, 2, nil)
	if tr == nil {
		t.Fatal("no trace")
	}
	meta := trace.Meta{Benchmark: tr.Header.Benchmark, Seed: tr.Header.Seed,
		Warmup: tr.Header.Warmup, Measure: tr.Header.Measure}
	for _, keep := range []uint64{traceTestMode.Warmup / 2, traceTestMode.Warmup + traceTestMode.Measure/2} {
		short := trace.New(meta, tr.Ops[:keep])
		res := ReplayOneCtx(ctx, spec, short, nil)
		if res.Err == nil || !strings.Contains(res.Err.Error(), "exhausted") {
			t.Errorf("trace cut to %d ops: err = %v, want the trace-exhausted error", keep, res.Err)
		}
	}
}

// TestStalledMachineFails: a machine that stops committing fails at the
// loop's cycle cap, single-core and CMP alike, instead of spinning
// forever. The stall is staged by swapping in a kernel with no
// components: the clock runs, nothing commits.
func TestStalledMachineFails(t *testing.T) {
	prof := mustProfile(t, "403.gcc")
	mode := Mode{Name: "stall", Warmup: 100, Measure: 400}
	builds := map[string]func() (*hier.System, error){
		"single": func() (*hier.System, error) {
			return hier.Build(hier.Conventional, prof, hier.Options{MaxInstr: 500})
		},
		"cmp": func() (*hier.System, error) {
			return hier.BuildCMP(hier.Conventional, []workload.Profile{prof, mustProfile(t, "470.lbm")}, hier.CMPOptions{})
		},
	}
	for name, build := range builds {
		w, err := measure(context.Background(), func() (*hier.System, error) {
			s, err := build()
			if err == nil {
				s.Kernel = sim.NewKernel()
			}
			return s, err
		}, name, mode, nil)
		if err == nil || !strings.Contains(err.Error(), "exp: "+name+" stalled") {
			t.Fatalf("%s: err = %v, want a stalled error", name, err)
		}
		// The bound is the mix loop's: 1000 cycles per budgeted
		// instruction plus a million, overshot by at most one chunk.
		bound := 1000*(mode.Warmup+mode.Measure) + 1_000_000
		if c := w.sys.Kernel.Cycle(); c <= bound || c > bound+2048 {
			t.Errorf("%s: stalled run stopped at cycle %d, want just past %d", name, c, bound)
		}
		if w.stats != nil {
			t.Errorf("%s: a stalled run reported statistics", name)
		}
	}
}
