// Example trace_replay walks the trace capture & replay subsystem end
// to end:
//
//  1. record one benchmark's run — a normal measurement that also
//     captures the core's dynamic op stream as a lnuca-trace-v1 trace;
//  2. replay the trace on the recording hierarchy and verify the
//     statistics are bit-identical to the live run (the subsystem's
//     determinism contract);
//  3. sweep the same trace across all four Fig. 1 hierarchies through
//     the public Local runner — one recorded workload, four
//     organizations, directly comparable because every run consumed the
//     identical instruction stream;
//  4. round-trip the trace through its binary encoding (what a .lntrace
//     file or a POST /v1/traces upload carries) and show the decoded
//     copy replays to the same result, then rerun one cell to show
//     trace runs memoize in the content-addressed result cache.
//
// Run it with:
//
//	go run ./examples/trace_replay [-bench 400.perlbench] [-seed 1]
//
// The example exits non-zero if replay determinism is violated.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	lightnuca "repro"
)

func main() {
	bench := flag.String("bench", "400.perlbench", "catalog benchmark to record")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()
	ctx := context.Background()

	// 1. Record: a live run on LN3 that captures its op stream.
	recReq := lightnuca.Request{
		Hierarchy: "ln+l3",
		Levels:    3,
		Benchmark: *bench,
		Mode:      "quick",
		Seed:      *seed,
	}
	live, tr, err := lightnuca.Record(ctx, recReq)
	if err != nil {
		fail("record: %v", err)
	}
	fmt.Printf("recorded %s on %s: IPC %.3f over %d cycles\n", *bench, live.Config, live.IPC, live.Cycles)
	fmt.Printf("trace id %s: %d ops (windows %d+%d, seed %d)\n\n",
		tr.ID()[:16], tr.Header.Ops, tr.Header.Warmup, tr.Header.Measure, tr.Header.Seed)

	// 2. Replay on the recording hierarchy: bit-identical or bust.
	runner := &lightnuca.Local{}
	id, err := runner.ImportTrace(tr)
	if err != nil {
		fail("import: %v", err)
	}
	replay, err := runner.Run(ctx, lightnuca.Request{Hierarchy: "ln+l3", Levels: 3, Trace: id})
	if err != nil {
		fail("replay: %v", err)
	}
	switch {
	case replay.IPC != live.IPC || replay.Cycles != live.Cycles:
		fail("determinism violated: IPC %v vs %v, cycles %d vs %d", replay.IPC, live.IPC, replay.Cycles, live.Cycles)
	case replay.Stats.String() != live.Stats.String():
		fail("determinism violated: statistics diverged")
	}
	fmt.Println("replay on the recording hierarchy is bit-identical to the live run ✓")

	// 3. Sweep the one recorded stream across every hierarchy.
	fmt.Printf("\nreplaying trace %s against all four hierarchies:\n", tr.ID()[:16])
	fmt.Printf("%-14s %-12s %8s %10s %12s\n", "hierarchy", "config", "IPC", "cycles", "mean ld lat")
	for _, h := range []lightnuca.Request{
		{Hierarchy: "conventional", Trace: id},
		{Hierarchy: "ln+l3", Levels: 3, Trace: id},
		{Hierarchy: "dn-4x8", Trace: id},
		{Hierarchy: "ln+dn-4x8", Levels: 3, Trace: id},
	} {
		res, err := runner.Run(ctx, h)
		if err != nil {
			fail("replay on %s: %v", h.Hierarchy, err)
		}
		fmt.Printf("%-14s %-12s %8.3f %10d %12.1f\n", h.Hierarchy, res.Config, res.IPC, res.Cycles,
			res.Stats.Ratio("core.load_latency_sum", "core.load_latency_count"))
	}

	// 4. The binary round trip (what a .lntrace file or an upload
	// carries) preserves the replay, and trace runs memoize.
	data, err := tr.Encode()
	if err != nil {
		fail("encode: %v", err)
	}
	decoded, err := lightnuca.DecodeTrace(data)
	if err != nil {
		fail("decode: %v", err)
	}
	runner2 := &lightnuca.Local{}
	id2, err := runner2.ImportTrace(decoded)
	if err != nil {
		fail("import decoded: %v", err)
	}
	if id2 != id {
		fail("codec round trip changed the content hash: %s vs %s", id2, id)
	}
	fromDisk, err := runner2.Run(ctx, lightnuca.Request{Hierarchy: "ln+l3", Levels: 3, Trace: id2})
	if err != nil {
		fail("replay decoded: %v", err)
	}
	if fromDisk.IPC != live.IPC || fromDisk.Cycles != live.Cycles {
		fail("decoded trace replays differently")
	}
	rerun, err := runner2.Run(ctx, lightnuca.Request{Hierarchy: "ln+l3", Levels: 3, Trace: id2})
	if err != nil {
		fail("rerun: %v", err)
	}
	if !rerun.Cached {
		fail("trace rerun was not served from the result cache")
	}
	fmt.Printf("\n%d-byte encoded trace round-trips (id %s…) and replays identically;\n", len(data), id2[:16])
	fmt.Println("rerunning the same trace job is a content-addressed cache hit ✓")
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "trace_replay: "+format+"\n", args...)
	os.Exit(1)
}
