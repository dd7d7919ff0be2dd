package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounters(t *testing.T) {
	s := NewSet()
	s.Add("hits", 1)
	s.Add("hits", 4)
	s.Add("misses", 2)
	if got := s.Counter("hits"); got != 5 {
		t.Errorf("hits = %d, want 5", got)
	}
	if got := s.Counter("misses"); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := s.Counter("absent"); got != 0 {
		t.Errorf("absent = %d, want 0", got)
	}
}

func TestRatio(t *testing.T) {
	s := NewSet()
	s.Add("ln.transport_actual_cycles", 1013)
	s.Add("ln.transport_min_cycles", 1000)
	if got := s.Ratio("ln.transport_actual_cycles", "ln.transport_min_cycles"); got != 1.013 {
		t.Errorf("ratio = %v, want 1.013", got)
	}
	if got := s.Ratio("absent", "ln.transport_min_cycles"); got != 0 {
		t.Errorf("absent numerator: ratio = %v, want 0", got)
	}
	// A mean over nothing is no number, which a table renders as a dash.
	if got := s.Ratio("ln.transport_actual_cycles", "absent"); !math.IsNaN(got) {
		t.Errorf("absent denominator: ratio = %v, want NaN", got)
	}
}

// TestScalars: a set holds counters alone. The scalars lnuca-job-v5
// stored beside them (core.ipc and four more, end-of-run values) decode
// to nothing, as encoding/json reads them, and no encoding writes them: a
// reader works each out from two window counters with Ratio.
func TestScalars(t *testing.T) {
	var s Set
	if err := json.Unmarshal(legacyResult(t), &s); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Names()); n != 54 || s.Counter("core.ipc") != 0 {
		t.Errorf("a v5 set decoded to %d counters, core.ipc %d; want its 54 counters and no scalar among them", n, s.Counter("core.ipc"))
	}
	enc, err := s.MarshalJSON()
	if err != nil || strings.Contains(string(enc), "scalars") || strings.Contains(string(enc), "core.ipc") {
		t.Errorf("re-encoded a v5 set with its scalars (%v): %s", err, enc)
	}
	if got := s.Ratio("ln.transport_actual_cycles", "ln.transport_min_cycles"); math.IsNaN(got) || got < 1 {
		t.Errorf("transport ratio from the set's counters = %v, want a number >= 1", got)
	}
}

func TestNamesSorted(t *testing.T) {
	s := NewSet()
	s.Add("b", 1)
	s.Add("a", 1)
	s.Add("c", 1)
	names := s.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Errorf("Names = %v, want [a b c]", names)
	}
}

func TestHarmonicMeanKnownValues(t *testing.T) {
	got := HarmonicMean([]float64{1, 1, 1})
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("HM(1,1,1) = %v, want 1", got)
	}
	// HM(1,2) = 2/(1+0.5) = 4/3.
	got = HarmonicMean([]float64{1, 2})
	if math.Abs(got-4.0/3.0) > 1e-12 {
		t.Errorf("HM(1,2) = %v, want 4/3", got)
	}
	if !math.IsNaN(HarmonicMean(nil)) {
		t.Error("HM(empty) should be NaN")
	}
	if !math.IsNaN(HarmonicMean([]float64{1, 0})) {
		t.Error("HM with zero should be NaN")
	}
}

func TestMeanOrderingProperty(t *testing.T) {
	// For positive inputs: harmonic <= arithmetic.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			v := math.Abs(r)
			if v > 1e-6 && v < 1e6 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		h, a := HarmonicMean(xs), ArithmeticMean(xs)
		const eps = 1e-9
		return h <= a*(1+eps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHarmonicMeanScaleInvariance(t *testing.T) {
	f := func(a, b, c float64) bool {
		bound := func(v float64) float64 {
			v = math.Abs(v)
			if math.IsNaN(v) || math.IsInf(v, 0) || v > 1e6 {
				v = math.Mod(v, 1e6)
				if math.IsNaN(v) {
					v = 1
				}
			}
			return v + 1
		}
		xs := []float64{bound(a), bound(b), bound(c)}
		scaled := []float64{xs[0] * 3, xs[1] * 3, xs[2] * 3}
		return math.Abs(HarmonicMean(scaled)-3*HarmonicMean(xs)) < 1e-6*HarmonicMean(scaled)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedupPercent(t *testing.T) {
	if got := SpeedupPercent(1.1, 1.0); math.Abs(got-10) > 1e-9 {
		t.Errorf("SpeedupPercent(1.1,1.0) = %v, want 10", got)
	}
	if got := SpeedupPercent(0.9, 1.0); math.Abs(got+10) > 1e-9 {
		t.Errorf("SpeedupPercent(0.9,1.0) = %v, want -10", got)
	}
	if !math.IsNaN(SpeedupPercent(1, 0)) {
		t.Error("SpeedupPercent with zero base should be NaN")
	}
}

// Load latency is the counter pair core.load_latency_sum and
// core.load_latency_count, and its mean their Ratio. The Histogram tests
// ask of that pair what they asked of the 512-bucket histogram it replaced.
const latSum, latCount = "core.load_latency_sum", "core.load_latency_count"

// observe counts one load latency into s, as the core does.
func observe(s *Set, cycles uint64) {
	s.Add(latSum, cycles)
	s.Add(latCount, 1)
}

func meanLatency(s *Set) float64 { return s.Ratio(latSum, latCount) }

func TestHistogramBasics(t *testing.T) {
	s := NewSet()
	for _, v := range []uint64{0, 1, 1, 3, 7} {
		observe(s, v)
	}
	if s.Counter(latCount) != 5 || s.Counter(latSum) != 12 {
		t.Errorf("count/sum = %d/%d, want 5/12", s.Counter(latCount), s.Counter(latSum))
	}
	if got := meanLatency(s); math.Abs(got-12.0/5.0) > 1e-12 {
		t.Errorf("mean = %v, want 2.4", got)
	}
	if got := s.Names(); len(got) != 2 {
		t.Errorf("observing load latencies made counters %v, want the pair", got)
	}
}

// TestHistogramNegativeClamped: a latency pair that went backwards between
// two snapshots has no window value; Delta leaves it out, so the window's
// mean is no number, never one of a wrapped sum.
func TestHistogramNegativeClamped(t *testing.T) {
	start, end := NewSet(), NewSet()
	for i := 0; i < 4; i++ {
		observe(start, 9)
	}
	observe(end, 5)
	d := Delta(end, start)
	if d.Counter(latSum) != 0 || d.Counter(latCount) != 0 || !math.IsNaN(meanLatency(d)) {
		t.Errorf("window of a pair below its start: sum %d, count %d, mean %v; want 0, 0, NaN",
			d.Counter(latSum), d.Counter(latCount), meanLatency(d))
	}
}

func TestHistogramMeanProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		s := NewSet()
		xs := make([]float64, len(vals))
		for i, v := range vals {
			observe(s, uint64(v))
			xs[i] = float64(v)
		}
		if len(vals) == 0 {
			return math.IsNaN(meanLatency(s))
		}
		return math.Abs(meanLatency(s)-ArithmeticMean(xs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEmptyHistogram: with no loads the mean is no number, which a table
// prints as a dash; one load of latency 0 is counted.
func TestEmptyHistogram(t *testing.T) {
	s := NewSet()
	if !math.IsNaN(meanLatency(s)) {
		t.Errorf("mean over no loads = %v, want NaN", meanLatency(s))
	}
	observe(s, 0)
	if s.Counter(latCount) != 1 || meanLatency(s) != 0 {
		t.Errorf("one load of latency 0: count %d, mean %v", s.Counter(latCount), meanLatency(s))
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	s := NewSet()
	for _, v := range []uint64{0, 2, 2, 5, 7, 31} {
		observe(s, v)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Set
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(s, &got) {
		t.Errorf("round trip changed the pair:\n got %s\nwant %s", &got, s)
	}
	// A decoded set keeps counting.
	observe(&got, 1)
	if got.Counter(latCount) != s.Counter(latCount)+1 {
		t.Errorf("count after another load = %d, want %d", got.Counter(latCount), s.Counter(latCount)+1)
	}
}

func TestHistogramJSONEmptyRoundTrip(t *testing.T) {
	s := NewSet()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Set
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(s, &got) || !math.IsNaN(meanLatency(&got)) {
		t.Errorf("empty round trip: got %s (mean %v), want an empty set", &got, meanLatency(&got))
	}
}

func TestHistogramClone(t *testing.T) {
	s := NewSet()
	observe(s, 1)
	c := s.Clone()
	observe(s, 1)
	observe(s, 9)
	if c.Counter(latCount) != 1 || c.Counter(latSum) != 1 {
		t.Errorf("clone moved by later loads:\n%s", c)
	}
}

// TestHistogramDelta: the window's mean is its own loads', not the run's.
func TestHistogramDelta(t *testing.T) {
	s := NewSet()
	observe(s, 1)
	observe(s, 20) // before the window
	start := s.Clone()
	observe(s, 3)
	observe(s, 3)
	observe(s, 30)
	d := Delta(s, start)
	if d.Counter(latCount) != 3 || d.Counter(latSum) != 36 || meanLatency(d) != 12 {
		t.Errorf("window count/sum/mean = %d/%d/%v, want 3/36/12", d.Counter(latCount), d.Counter(latSum), meanLatency(d))
	}
	if meanLatency(s) != 57.0/5 {
		t.Errorf("run-wide mean = %v, want 11.4", meanLatency(s))
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "config", "ipc")
	tb.AddRowf("L2-256KB", 1.0)
	tb.AddRowf("LN3-144KB", 1.061)
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "L2-256KB") || !strings.Contains(out, "1.061") {
		t.Errorf("missing cells in output:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
}

// TestTableNaNIsDash: a mean over an empty class renders as a dash, the
// way Table III marks a level a configuration does not have; every other
// float keeps its three decimals.
func TestTableNaNIsDash(t *testing.T) {
	tb := NewTable("", "config", "IPC int", "IPC fp", "int gain %")
	hm := HarmonicMean(nil)
	tb.AddRowf("L2-256KB", hm, 0.891, SpeedupPercent(hm, hm))
	if !math.IsNaN(hm) {
		t.Fatalf("harmonic mean of nothing is %v, not NaN: the case this test pins is gone", hm)
	}
	out := tb.String()
	if strings.Contains(out, "NaN") || strings.Count(out, "—") != 2 || !strings.Contains(out, "0.891") {
		t.Errorf("want two dashes and 0.891, no NaN:\n%s", out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Errorf("row missing:\n%s", out)
	}
}

func TestSetString(t *testing.T) {
	s := NewSet()
	s.Add("n", 2)
	s.Add("m", 1)
	if out := s.String(); out != "m=1\nn=2\n" {
		t.Errorf("String output wrong:\n%s", out)
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	s := NewSet()
	s.Add("l1.hits", 1234)
	s.Add("l1.misses", 56)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Set
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("l1.hits") != 1234 || back.Counter("l1.misses") != 56 {
		t.Errorf("counters lost: %s", back.String())
	}
	// The restored set must be fully usable, not just readable.
	back.Add("l1.hits", 1)
	back.Add("new", 2)
	if back.Counter("l1.hits") != 1235 || back.Counter("new") != 2 {
		t.Error("restored set not mutable")
	}
}

func TestSetJSONEmpty(t *testing.T) {
	// A set restored from minimal JSON (e.g. a hand-written cache file)
	// must become usable even when maps are absent.
	var s Set
	if err := json.Unmarshal([]byte(`{}`), &s); err != nil {
		t.Fatal(err)
	}
	s.Add("x", 1)
	if s.Counter("x") != 1 {
		t.Error("empty-restored set unusable")
	}
}

func TestMergePrefixedAndSub(t *testing.T) {
	core := NewSet()
	core.Add("core.committed", 100)
	core.Add("l1.misses", 7)

	all := NewSet()
	all.MergePrefixed("c0", core)
	all.MergePrefixed("c1", core)
	all.Add("l3.bank_accesses", 9)

	if got := all.Counter("c0.core.committed"); got != 100 {
		t.Fatalf("c0.core.committed = %d", got)
	}
	if got := all.Counter("c1.l1.misses"); got != 7 {
		t.Fatalf("c1.l1.misses = %d", got)
	}

	c0 := all.Sub("c0")
	if got := c0.Counter("core.committed"); got != 100 {
		t.Fatalf("Sub counter = %d", got)
	}
	// Shared counters and other cores' entries stay out.
	if got := len(c0.Names()); got != 2 {
		t.Fatalf("Sub leaked entries: %v", c0.Names())
	}
	// Prefix matching is segment-aware: "c0x.foo" must not land in "c0".
	all.Add("c0x.foo", 1)
	if got := all.Sub("c0").Counter("x.foo"); got != 0 {
		t.Fatal("Sub matched a non-segment prefix")
	}
}
