package exp

import (
	"context"
	"testing"

	"repro/internal/hier"
	"repro/internal/trace"
)

// traceTestMode keeps the determinism cross-product fast while still
// spanning warmup and a real measured window.
var traceTestMode = Mode{Name: "trace-test", Warmup: 1_000, Measure: 6_000}

// requireSameResult asserts two measurements are bit-identical: IPC,
// cycles, every counter and the energy breakdown.
func requireSameResult(t *testing.T, label string, live, replay Result) {
	t.Helper()
	if live.Err != nil || replay.Err != nil {
		t.Fatalf("%s: live err %v, replay err %v", label, live.Err, replay.Err)
	}
	if live.IPC != replay.IPC {
		t.Errorf("%s: IPC diverged: live %v, replay %v", label, live.IPC, replay.IPC)
	}
	if live.Cycles != replay.Cycles {
		t.Errorf("%s: cycles diverged: live %d, replay %d", label, live.Cycles, replay.Cycles)
	}
	if live.Stats.String() != replay.Stats.String() {
		t.Errorf("%s: statistics diverged:\nlive:\n%s\nreplay:\n%s", label, live.Stats, replay.Stats)
	}
	if live.Energy != replay.Energy {
		t.Errorf("%s: energy diverged: live %+v, replay %+v", label, live.Energy, replay.Energy)
	}
}

// TestReplayDeterminismAllKinds is the subsystem's acceptance test:
// recording a synthetic run and replaying the trace on the same
// hierarchy yields bit-identical statistics to the live run, for every
// Fig. 1 organization.
func TestReplayDeterminismAllKinds(t *testing.T) {
	ctx := context.Background()
	prof := mustProfile(t, "403.gcc")
	for _, spec := range []Spec{
		{Kind: hier.Conventional},
		{Kind: hier.LNUCAL3, Levels: 3},
		{Kind: hier.DNUCAOnly},
		{Kind: hier.LNUCADNUCA, Levels: 3},
	} {
		spec := spec
		t.Run(spec.Label(), func(t *testing.T) {
			t.Parallel()
			live, tr := RecordOneCtx(ctx, spec, prof, traceTestMode, 9, nil)
			if live.Err != nil {
				t.Fatalf("record: %v", live.Err)
			}
			if tr.Header.Benchmark != prof.Name || tr.Header.Seed != 9 {
				t.Fatalf("trace header provenance wrong: %+v", tr.Header)
			}
			replay := ReplayOneCtx(ctx, spec, tr, nil)
			requireSameResult(t, spec.Label(), live, replay)
		})
	}
}

// TestRecordingIsTransparent: wrapping the generator in a Recorder must
// not perturb the live measurement at all.
func TestRecordingIsTransparent(t *testing.T) {
	ctx := context.Background()
	prof := mustProfile(t, "429.mcf")
	spec := Spec{Kind: hier.LNUCAL3, Levels: 3}
	plain := RunOneCtx(ctx, spec, prof, traceTestMode, 4, nil)
	recorded, tr := RecordOneCtx(ctx, spec, prof, traceTestMode, 4, nil)
	requireSameResult(t, "recorded-vs-plain", plain, recorded)
	if tr == nil || tr.Header.Ops == 0 {
		t.Fatal("no trace captured")
	}
}

// TestReplayAcrossHierarchies: one trace re-runs to completion on every
// other hierarchy (the slack margin covers cores that run further
// ahead), and a serialized round trip through the codec replays
// identically to the in-memory trace.
func TestReplayAcrossHierarchies(t *testing.T) {
	ctx := context.Background()
	prof := mustProfile(t, "482.sphinx3")
	_, tr := RecordOneCtx(ctx, Spec{Kind: hier.Conventional}, prof, traceTestMode, 2, nil)
	if tr == nil {
		t.Fatal("no trace")
	}
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{
		{Kind: hier.LNUCAL3, Levels: 2},
		{Kind: hier.DNUCAOnly},
		{Kind: hier.LNUCADNUCA, Levels: 4},
	} {
		mem := ReplayOneCtx(ctx, spec, tr, nil)
		if mem.Err != nil {
			t.Fatalf("%s: replay on foreign hierarchy failed: %v", spec.Label(), mem.Err)
		}
		disk := ReplayOneCtx(ctx, spec, decoded, nil)
		requireSameResult(t, spec.Label()+" codec-round-trip", mem, disk)
	}
}

// TestWindowCountsLoadLatencies: the measured window carries the
// load-latency counters, their mean is plausible, and they count the
// window's loads only: no more loads than the core issued in it.
func TestWindowCountsLoadLatencies(t *testing.T) {
	res := RunOneCtx(context.Background(), Spec{Kind: hier.Conventional}, mustProfile(t, "403.gcc"), traceTestMode, 1, nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	loads := res.Stats.Counter("core.load_latency_count")
	if loads == 0 || loads > res.Stats.Counter("core.loads") {
		t.Fatalf("%d loads timed in a window that issued %d", loads, res.Stats.Counter("core.loads"))
	}
	if mean := res.Stats.Ratio("core.load_latency_sum", "core.load_latency_count"); mean < 2 {
		t.Errorf("implausible mean load latency %v: an L1 hit alone takes 2 cycles", mean)
	}
}
