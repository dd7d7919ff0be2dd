package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/lnuca"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// timeEach runs fn n times and returns each call's wall.
func timeEach(n int, fn func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	for i := range out {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = time.Since(start)
	}
	return out, nil
}

// medianUS is the median of ds in microseconds.
func medianUS(ds []time.Duration) float64 { return median(secondsOf(ds)) * 1e6 }

// totalAllocMB is the bytes this process has ever allocated, in MB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc does not say.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// statsMicro times the statistics set's JSON round trip on a real
// result — what every cached reply pays at least once each way.
func statsMicro(e *env, m map[string]float64, set *stats.Set) error {
	ds, err := timeEach(e.sz.microN, func(int) error {
		b, err := json.Marshal(set)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, stats.NewSet())
	})
	m["stats.set_json_roundtrip_us"] = medianUS(ds)
	return err
}

// stepNS is the cost of one ungated Kernel.Step — every component
// evaluated, every cycle — on a warmed single-core machine of the kind.
func stepNS(e *env, kind hier.Kind) (float64, error) {
	prof, ok := workload.ByName("429.mcf")
	if !ok {
		return 0, fmt.Errorf("benchmark 429.mcf is not in the catalog")
	}
	sys, err := hier.Build(kind, prof, hier.Options{Seed: e.seed})
	if err != nil {
		return 0, err
	}
	sys.Prewarm()
	sys.Run(e.sz.stepWarm)
	start := time.Now()
	for i := uint64(0); i < e.sz.stepCycles; i++ {
		sys.Kernel.Step()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(e.sz.stepCycles), nil
}

// kernelMicro times direct calls into the layers under a kernel
// workload, each from the harness, each under a span of its own.
func kernelMicro(e *env, rep *report, parent int, cells []kernelCell, ref []cellResult, kt *kernelTrace) error {
	m := rep.metrics
	section := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		e.spans.add(parent, name, start, time.Now())
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	usesLNUCA := false
	for _, kind := range sortedKinds(cells) {
		kind := kind
		usesLNUCA = usesLNUCA || kind == hier.LNUCAL3 || kind == hier.LNUCADNUCA
		if err := section("sim.step", func() (err error) {
			m["sim.step_ns."+kindSuffix[kind]], err = stepNS(e, kind)
			return err
		}); err != nil {
			return err
		}
	}
	if usesLNUCA {
		if err := section("lnuca.geometry", func() error {
			ds, err := timeEach(e.sz.microN, func(int) error {
				_, err := lnuca.NewGeometry(3)
				return err
			})
			m["lnuca.geometry_build_us"] = medianUS(ds)
			return err
		}); err != nil {
			return err
		}
	}
	if err := section("workload.gen", func() error {
		gen, err := workload.NewGenerator(cells[0].bench, e.seed)
		if cells[0].mix != nil {
			prof, _ := workload.ByName(cells[0].mix.Benchmarks[0])
			gen, err = workload.NewGenerator(prof, e.seed)
		}
		if err != nil {
			return err
		}
		const ops = 200_000
		start := time.Now()
		for i := 0; i < ops; i++ {
			gen.Next()
		}
		m["workload.gen_ns_per_op"] = float64(time.Since(start).Nanoseconds()) / ops
		return nil
	}); err != nil {
		return err
	}
	if err := section("stats.json", func() error { return statsMicro(e, m, kt.lastStats) }); err != nil {
		return err
	}
	if cells[0].mix != nil {
		// The D-NUCA under four cores: the one CMP cell no end-to-end
		// workload runs, traced for its D-NUCA cost alone.
		return section("dnuca.cmp4", func() error {
			dn := kernelCell{mix: &exp.MixSpec{Kind: hier.DNUCAOnly, Benchmarks: kernelBenchmarks}, mode: e.sz.dnuca}
			// The workload's seed was settled on its own two machines; this
			// third one walks on from it should it stall there.
			var extra *kernelTrace
			var err error
			for seed, try := e.seed, 1; ; seed, try = nextSeed(seed), try+1 {
				extra = &kernelTrace{clockNS: kt.clockNS}
				if _, err = extra.run(e, parent, dn, seed); !errors.Is(err, errStalled) || try == seedTries {
					break
				}
			}
			rep.attempted++
			if err != nil {
				rep.fail(1, "traced %s: %v", dn.label(), err)
			}
			m["dnuca.cmp4_ns_per_cycle"] = ratio(extra.layerNS[layerDNUCA], float64(extra.kernel.Cycle))
			return nil
		})
	}
	// The replay path: record the first cell, encode and decode its
	// trace, replay it, and compare with the live run.
	return section("trace.replay", func() error {
		c := cells[0]
		rep.attempted++
		liveStart := time.Now()
		live, tr := exp.RecordOneCtx(e.ctx, c.spec, c.bench, c.mode, e.seed, nil)
		liveWall := time.Since(liveStart)
		if live.Err != nil {
			return live.Err
		}
		encStart := time.Now()
		data, err := tr.Encode()
		encWall := time.Since(encStart)
		if err != nil {
			return err
		}
		decStart := time.Now()
		back, err := trace.Decode(data)
		decWall := time.Since(decStart)
		if err != nil {
			return err
		}
		replayStart := time.Now()
		replayed := exp.ReplayOneCtx(e.ctx, c.spec, back, nil)
		replayWall := time.Since(replayStart)
		if replayed.Err != nil {
			return replayed.Err
		}
		liveSum, err1 := statsDigest(live.Stats)
		replaySum, err2 := statsDigest(replayed.Stats)
		if err1 != nil || err2 != nil || liveSum != replaySum || liveSum != ref[0].digest {
			rep.fail(1, "%s: recorded, replayed and plain runs do not share one set of statistics", c.label())
		}
		ops := float64(len(tr.Ops))
		m["trace.encode_ns_per_op"] = ratio(float64(encWall.Nanoseconds()), ops)
		m["trace.decode_ns_per_op"] = ratio(float64(decWall.Nanoseconds()), ops)
		m["trace.replay_vs_live_ratio"] = ratio(replayWall.Seconds(), liveWall.Seconds())
		return nil
	})
}
