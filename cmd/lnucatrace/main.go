// Command lnucatrace records, inspects and replays lnuca-trace-v1
// instruction traces: record any workload once, re-run it against every
// hierarchy.
//
//	lnucatrace record -bench 400.perlbench -hier ln+l3 -o perl.lntrace
//	lnucatrace record -bench 429.mcf -hier conventional -mode full -seed 3 -o mcf.lntrace -selfcheck
//	lnucatrace info perl.lntrace
//	lnucatrace replay -hier dn-4x8 perl.lntrace
//	lnucatrace replay -hier ln+dn-4x8 -levels 4 -cache /var/lib/lnuca/results perl.lntrace
//
// record runs the benchmark live (printing the same measurement lnucasim
// would) while capturing the core's op stream; -selfcheck immediately
// replays the capture on the same hierarchy and fails unless every
// statistic is bit-identical to the live run. info prints a trace's
// provenance header and per-class op profile without simulating. replay
// imports the trace into a local runner and re-runs it against any
// hierarchy; with -cache (and -traces) the result and the trace land in
// the same content-addressed stores lnucad serves.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	lightnuca "repro"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		cmdRecord(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "-version", "--version", "version":
		fmt.Println("lnucatrace", obs.Build())
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fatalf("unknown subcommand %q (want record, info or replay)", os.Args[1])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lnucatrace record -bench <name> [-hier H] [-levels N] [-mode quick|full] [-warmup N -measure N] [-seed N] -o <file.lntrace> [-selfcheck]
  lnucatrace info <file.lntrace>
  lnucatrace replay [-hier H] [-levels N] [-cache dir] [-traces dir] <file.lntrace>`)
	os.Exit(2)
}

func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		bench   = fs.String("bench", "", "catalog benchmark to record (required)")
		hier    = fs.String("hier", "ln+l3", "hierarchy to record on: conventional, ln+l3, dn-4x8, ln+dn-4x8")
		levels  = fs.Int("levels", 3, "L-NUCA levels where applicable (2..6)")
		mode    = fs.String("mode", "quick", "simulation window: quick or full")
		warmup  = fs.Uint64("warmup", 0, "explicit warmup instructions (overrides -mode with -measure)")
		measure = fs.Uint64("measure", 0, "explicit measured instructions (overrides -mode with -warmup)")
		seed    = fs.Uint64("seed", 1, "simulation seed")
		out     = fs.String("o", "", "output trace file (required)")
		check   = fs.Bool("selfcheck", false, "replay the capture on the same hierarchy and fail unless bit-identical to the live run")
	)
	fs.Parse(args)
	if *bench == "" || *out == "" {
		fatalf("record needs -bench and -o")
	}
	req := lightnuca.Request{
		Hierarchy: *hier,
		Levels:    *levels,
		Benchmark: *bench,
		Seed:      *seed,
	}
	if *warmup != 0 || *measure != 0 {
		req.Warmup, req.Measure = *warmup, *measure
	} else {
		req.Mode = *mode
	}

	ctx := context.Background()
	live, tr, err := lightnuca.Record(ctx, req)
	if err != nil {
		fatalf("record: %v", err)
	}
	data, err := tr.Encode()
	if err != nil {
		fatalf("encode: %v", err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("recorded %s on %s: IPC %.3f over %d cycles\n", *bench, live.Config, live.IPC, live.Cycles)
	fmt.Printf("trace:    %s (%d ops, %d bytes)\n", *out, tr.Header.Ops, len(data))
	fmt.Printf("id:       %s\n", tr.ID())

	if *check {
		runner := &lightnuca.Local{}
		id, err := runner.ImportTrace(tr)
		if err != nil {
			fatalf("selfcheck import: %v", err)
		}
		replay, err := runner.Run(ctx, lightnuca.Request{Hierarchy: *hier, Levels: *levels, Trace: id})
		if err != nil {
			fatalf("selfcheck replay: %v", err)
		}
		if err := compareRuns(live, replay); err != nil {
			fatalf("selfcheck FAILED: %v", err)
		}
		fmt.Println("selfcheck: replay is bit-identical to the live run")
	}
}

// compareRuns asserts two results carry identical measurements: IPC,
// cycles, every counter (the load-latency sum and count among them) and
// energy.
func compareRuns(live, replay lightnuca.Result) error {
	switch {
	case live.IPC != replay.IPC:
		return fmt.Errorf("IPC diverged: live %v, replay %v", live.IPC, replay.IPC)
	case live.Cycles != replay.Cycles:
		return fmt.Errorf("cycles diverged: live %d, replay %d", live.Cycles, replay.Cycles)
	case live.Stats.String() != replay.Stats.String():
		return fmt.Errorf("statistics diverged:\nlive:\n%sreplay:\n%s", live.Stats, replay.Stats)
	case live.Energy != replay.Energy:
		return fmt.Errorf("energy diverged: live %+v, replay %+v", live.Energy, replay.Energy)
	}
	return nil
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("info needs exactly one trace file")
	}
	tr := readTrace(fs.Arg(0))
	h := tr.Header
	fmt.Printf("schema:    %s\n", h.Schema)
	fmt.Printf("id:        %s\n", h.ID)
	fmt.Printf("benchmark: %s\n", h.Benchmark)
	fmt.Printf("seed:      %d\n", h.Seed)
	fmt.Printf("windows:   %d warmup + %d measured instructions\n", h.Warmup, h.Measure)
	fmt.Printf("ops:       %d (%d replay slack beyond the windows)\n", h.Ops, h.Ops-min(h.Ops, h.Warmup+h.Measure))
	if len(tr.Ops) == 0 {
		return
	}
	var byClass [5]uint64
	for _, op := range tr.Ops {
		if int(op.Class) < len(byClass) {
			byClass[op.Class]++
		}
	}
	fmt.Printf("op mix:   ")
	for c := cpu.ClassInt; c <= cpu.ClassBranch; c++ {
		fmt.Printf(" %s %.1f%%", c, 100*float64(byClass[c])/float64(len(tr.Ops)))
	}
	fmt.Println()
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		hier     = fs.String("hier", "ln+l3", "hierarchy to replay against: conventional, ln+l3, dn-4x8, ln+dn-4x8")
		levels   = fs.Int("levels", 3, "L-NUCA levels where applicable (2..6)")
		cacheDir = fs.String("cache", "", "result cache directory shared with lnucad/lnucasweep")
		traceDir = fs.String("traces", "", "trace store directory shared with lnucad -traces")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatalf("replay needs exactly one trace file")
	}
	tr := readTrace(fs.Arg(0))
	runner := &lightnuca.Local{CacheDir: *cacheDir, TraceDir: *traceDir}
	id, err := runner.ImportTrace(tr)
	if err != nil {
		fatalf("import: %v", err)
	}
	res, err := runner.Run(context.Background(), lightnuca.Request{Hierarchy: *hier, Levels: *levels, Trace: id})
	if err != nil {
		fatalf("replay: %v", err)
	}
	src := "simulated"
	if res.Cached {
		src = "cache hit"
	}
	fmt.Printf("replayed %s (%s, seed %d) on %s: IPC %.3f over %d cycles [%s]\n",
		tr.Header.Benchmark, fs.Arg(0), tr.Header.Seed, res.Config, res.IPC, res.Cycles, src)
	if loads := res.Stats.Counter("core.load_latency_count"); loads > 0 {
		fmt.Printf("load latency: mean %.1f cycles over %d loads\n",
			res.Stats.Ratio("core.load_latency_sum", "core.load_latency_count"), loads)
	}
	fmt.Printf("content key: %s\n", res.Key)
}

func readTrace(path string) *trace.Trace {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	tr, err := lightnuca.DecodeTrace(data)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	return tr
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lnucatrace: "+format+"\n", args...)
	os.Exit(1)
}
