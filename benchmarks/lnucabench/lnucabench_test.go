package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

func TestFastestSum(t *testing.T) {
	ms := time.Millisecond
	passes := [][]time.Duration{
		{10 * ms, 50 * ms, 7 * ms},
		{12 * ms, 20 * ms, 9 * ms},
		{11 * ms, 21 * ms, 6 * ms},
	}
	// Per cell, not per pass: the fastest pass overall (the second, 41ms)
	// still loses two of its three cells to other passes.
	if got, want := fastestSum(passes), 10*ms+20*ms+6*ms; got != want {
		t.Errorf("fastestSum = %v, want %v", got, want)
	}
	if got := fastestSum(nil); got != 0 {
		t.Errorf("fastestSum(nil) = %v, want 0", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median(odd) = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(hundred, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0},     // not even the median has ten samples beyond it
		{20, 50},   // ten beyond the median, two beyond p90
		{100, 90},  // ten beyond p90, one beyond p99
		{999, 95},  // 9.99 beyond p99
		{1000, 99}, // exactly ten beyond p99
		{6000, 99}, // six beyond p99.9
		{10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "point", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "queue", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "dispatch", Start: 20, End: 90}, // overlaps queue by 10
		{ID: 4, Parent: 3, Name: "run", Start: 40, End: 80},
		{ID: 5, Parent: 3, Name: "late", Start: 85, End: 120}, // sticks out of its parent by 30
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 10, // 100 minus the union [0,90) of its children
		2: 30,
		3: 25, // 70 minus run's 40 minus late's 5 inside the parent
		4: 40,
		5: 35,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestSpanLogNilAndOpenClose(t *testing.T) {
	var none *spanLog
	if id := none.add(0, "x", time.Now(), time.Now()); id != 0 {
		t.Errorf("nil log handed out span id %d", id)
	}
	none.close(0, time.Now()) // must not panic
	l := newSpanLog()
	start := l.epoch.Add(time.Microsecond)
	parent := l.open(0, "parent", start)
	l.add(parent, "child", start, start.Add(time.Microsecond))
	l.close(parent, start.Add(3*time.Microsecond))
	got := l.snapshot()
	if len(got) != 2 || got[0].End-got[0].Start != 3000 || got[1].Parent != parent {
		t.Errorf("spans = %+v", got)
	}
}

// tinySizes shrink every window and count so the whole suite, traced
// and untraced, runs in a few seconds; names and code paths are the
// reference run's.
var tinySizes = sizes{
	conv:        exp.Mode{Name: "tiny", Warmup: 200, Measure: 1000},
	dnuca:       exp.Mode{Name: "tiny", Warmup: 200, Measure: 800},
	mix:         exp.Mode{Name: "tiny", Warmup: 200, Measure: 1000},
	sweep:       exp.Mode{Name: "tiny", Warmup: 200, Measure: 800},
	probePoints: 2,
	probeBatch:  4,
	warmBatch:   8,
	setupReps:   1,
	tracedPairs: 1,
	microN:      4,
	stepWarm:    500,
	stepCycles:  200,
}

func tinyEnv(t *testing.T, seed uint64) *env {
	t.Helper()
	return &env{ctx: context.Background(), seed: seed, sz: tinySizes, workDir: t.TempDir()}
}

// TestSeedMakesTheInputs pins the seed contract: the same seed gives
// the same simulated statistics, another seed gives others.
func TestSeedMakesTheInputs(t *testing.T) {
	cells, err := singleCells(exp.ConventionalSpecs()[:1], tinySizes.conv)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed uint64) string {
		e := tinyEnv(t, seed)
		rep := newReport("seed")
		pass, err := runPass(e, rep, cells, nil)
		if err != nil || rep.failed != 0 {
			t.Fatalf("seed %d: %v %v", seed, err, rep.notes)
		}
		return workloadDigest(pass)
	}
	one := digest(1)
	if again := digest(1); again != one {
		t.Errorf("seed 1 gave %s, then %s", one, again)
	}
	if two := digest(2); two == one {
		t.Errorf("seeds 1 and 2 gave the same statistics %s", one)
	}
	if a, b := sweepRequests(tinyEnv(t, 7)), sweepRequests(tinyEnv(t, 7)); !reflect.DeepEqual(a, b) || a[0].Seed != 7 || len(a) != 32 {
		t.Errorf("sweep requests for seed 7: %d points, seed %d, repeatable %v", len(a), a[0].Seed, reflect.DeepEqual(a, b))
	}
}

func TestStallGuard(t *testing.T) {
	canceled := false
	g := &stallGuard{cancel: func() { canceled = true }}
	// A machine that commits now and then, however rarely, is live.
	for done := uint64(1); done <= 3; done++ {
		for i := 0; i < stallReports; i++ {
			g.report(done, 100)
		}
	}
	if g.stalled || canceled {
		t.Fatalf("guard stopped a machine that commits every %d reports", stallReports)
	}
	g.report(3, 100)
	if !g.stalled || !canceled {
		t.Errorf("guard let %d reports pass without a commit", stallReports+1)
	}
}

// TestReferencePassReplacesAStallingSeed runs the 4-core mixes on a
// seed whose conventional machine deadlocks at the commit that added
// this benchmark. Whether or not a later commit cures the deadlock, the
// pass must complete every cell, on that seed or on its successor.
func TestReferencePassReplacesAStallingSeed(t *testing.T) {
	const stalling = 22
	e := tinyEnv(t, stalling)
	rep := newReport("cmp4_mix")
	cells := mixCells(tinySizes.mix)
	ref, err := referencePass(e, rep, cells)
	if err != nil || rep.failed != 0 || len(ref) != len(cells) {
		t.Fatalf("reference pass: %v, %d cells, failed %d: %v", err, len(ref), rep.failed, rep.notes)
	}
	if e.seed != stalling && e.seed != nextSeed(stalling) {
		t.Errorf("seed moved from %d to %d, want it kept or its successor %d", stalling, e.seed, nextSeed(stalling))
	}
	if again, err := runPass(e, rep, cells, ref); err != nil || rep.failed != 0 || len(again) != len(cells) {
		t.Errorf("second pass on seed %d: %v, failed %d: %v", e.seed, err, rep.failed, rep.notes)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness keeps the contract file and the
// harness's own tables one definition: names, units, directions,
// bounds and the reasons for the workloads.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %v\nharness        %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %v\nharness        %v", layers, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	if b.Paths[0] != "benchmarks/lnucabench" || b.Command[len(b.Command)-1] != "./benchmarks/lnucabench" {
		t.Errorf("paths %v / command %v do not name this package", b.Paths, b.Command)
	}
}

// TestSmokeAllWorkloads runs all five workloads, untraced and traced,
// at tiny windows, and checks that each passes its own correctness
// checks and emits exactly the metrics BENCHMARK.json names — so the
// repository's ordinary test run notices when the benchmark rots.
func TestSmokeAllWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	want := map[bool][]string{}
	for _, m := range b.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range b.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	sort.Strings(want[false])
	sort.Strings(want[true])
	for _, w := range workloads {
		digests := map[bool]string{}
		for _, traced := range []bool{false, true} {
			e := tinyEnv(t, 1)
			defs, run := endToEnd, w.run
			if traced {
				defs, run, e.spans = perLayer, w.traced, newSpanLog()
			}
			rep, err := run(e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.correct() {
				t.Errorf("%s traced=%v: attempted %d failed %d: %v", w.name, traced, rep.attempted, rep.failed, rep.notes)
			}
			digests[traced] = rep.statsSHA256
			var out bytes.Buffer
			if err := rep.print(&out, defs); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.name, traced, err)
			}
			var got []string
			for name := range line.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want[traced]) {
				t.Errorf("%s traced=%v emitted %v, BENCHMARK.json names %v", w.name, traced, got, want[traced])
			}
			if !traced {
				for name, v := range line.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v.Value)
					}
				}
			} else if len(e.spans.snapshot()) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
		}
		if digests[false] != digests[true] || digests[true] == "" {
			t.Errorf("%s: traced digest %q, untraced %q", w.name, digests[true], digests[false])
		}
	}
}

func TestAAGap(t *testing.T) {
	if got := aaGap(100, 104); got != 0.04 {
		t.Errorf("aaGap(100, 104) = %v, want 0.04", got)
	}
	if got := aaGap(100, 96); got != 0.04 {
		t.Errorf("aaGap(100, 96) = %v, want 0.04", got)
	}
	if got := aaGap(0, 5); got != 0 {
		t.Errorf("aaGap(0, 5) = %v, want 0", got)
	}
}
