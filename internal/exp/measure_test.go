package exp

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
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

// TestRunsLeaveNoGoroutine: no instruction-supply goroutine outlives
// the run that started it — a single-core run, a mix (whose cores have
// no budget, so nothing but the end of the run stops their producers),
// and a run cancelled mid-window, whose producer has blocks still to
// make (a 64 Ki-instruction budget is twice the supply's buffers). No
// garbage is collected while the count settles, so a producer that only
// a finalizer would stop counts as leaked.
func TestRunsLeaveNoGoroutine(t *testing.T) {
	prof := mustProfile(t, "403.gcc")
	long := Mode{Name: "long", Warmup: 4_000, Measure: 60_000}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"single", func() error {
			return RunOneCtx(context.Background(), Spec{Kind: hier.LNUCAL3, Levels: 3}, prof, traceTestMode, 1, nil).Err
		}},
		{"canceled", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err := RunOneCtx(ctx, Spec{Kind: hier.Conventional}, prof, long, 1, func(done, _ uint64) {
				if done >= 10_000 {
					cancel()
				}
			}).Err
			if err != context.Canceled {
				return fmt.Errorf("err = %v, want %v", err, context.Canceled)
			}
			return nil
		}},
		{"mix", func() error {
			mix := MixSpec{Kind: hier.Conventional, Benchmarks: []string{"403.gcc", "470.lbm"}}
			return RunMixCtx(context.Background(), mix, traceTestMode, 1, nil).Err
		}},
	} {
		base := runtime.NumGoroutine()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(200 * time.Millisecond); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > base {
			t.Errorf("%s: %d goroutines after the run, want %d", c.name, n, base)
		}
	}
}

// crawler stands in for a machine that commits, but too slowly: one
// instruction on core every period cycles.
type crawler struct {
	core   *cpu.Core
	period uint64
}

func (c crawler) Name() string { return "crawler" }
func (c crawler) Eval(k *sim.Kernel) {
	if k.Cycle()%c.period == 0 {
		c.core.Committed++
	}
}
func (c crawler) Commit(*sim.Kernel) {}

// TestStalledMachineFails: a machine that stops committing fails at the
// watchdog, one that crawls at the loop's cycle cap, single-core and
// CMP alike, instead of spinning forever. The stall is staged by
// swapping in a kernel whose only component, if any, is a crawler: the
// clock runs, nothing else commits.
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
	// The cap is the mix loop's: 1000 cycles per budgeted instruction
	// plus a million. Either rule may overshoot by at most one chunk.
	capCycles := 1000*(mode.Warmup+mode.Measure) + 1_000_000
	for name, build := range builds {
		for _, c := range []struct {
			stall  string
			period uint64 // 0: no crawler
			want   string
			bound  uint64
		}{
			{"silent", 0, "exp: " + name + " made no progress for ", stallCycles},
			{"crawling", stallCycles / 2, "exp: " + name + " stalled", capCycles + 1},
		} {
			w, err := measure(context.Background(), func() (*hier.System, error) {
				s, err := build()
				if err == nil {
					s.Kernel = sim.NewKernel()
					if c.period > 0 {
						s.Kernel.MustRegister(crawler{s.Core, c.period})
					}
				}
				return s, err
			}, name, mode, nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s, %s: err = %v, want %q", name, c.stall, err, c.want)
			}
			if cyc := w.sys.Kernel.Cycle(); cyc < c.bound || cyc > c.bound+2048 {
				t.Errorf("%s, %s: stalled run stopped at cycle %d, want just past %d", name, c.stall, cyc, c.bound)
			}
			if w.stats != nil {
				t.Errorf("%s, %s: a stalled run reported statistics", name, c.stall)
			}
		}
	}
}

// TestWatchdogRule: the watchdog fails a run once the committed total
// has stood still for stallCycles, counted from the cycle it last moved,
// and never while it moves.
func TestWatchdogRule(t *testing.T) {
	type step struct {
		committed, now, idle uint64
		stalled              bool
	}
	for _, c := range []struct {
		name  string
		steps []step
	}{
		{"silent from the start", []step{
			{0, 0, 0, false}, {0, stallCycles - 1, stallCycles - 1, false}, {0, stallCycles, stallCycles, true}}},
		{"progress resets the count", []step{
			{0, 90_000, 90_000, false}, {1, 95_000, 0, false}, {1, 95_000 + stallCycles - 1, stallCycles - 1, false},
			{1, 95_000 + stallCycles, stallCycles, true}}},
		{"a crawl never fires", []step{
			{1, 99_999, 0, false}, {2, 199_998, 0, false}, {3, 299_997, 0, false}}},
		{"a stall after progress", []step{
			{4, 2048, 0, false}, {8, 4096, 0, false}, {8, 4096 + stallCycles + 2047, stallCycles + 2047, true}}},
	} {
		var d watchdog
		for i, s := range c.steps {
			idle, stalled := d.check(s.committed, s.now)
			if idle != s.idle || stalled != s.stalled {
				t.Errorf("%s, step %d (committed %d at %d): (%d, %v), want (%d, %v)",
					c.name, i, s.committed, s.now, idle, stalled, s.idle, s.stalled)
			}
		}
	}
}
