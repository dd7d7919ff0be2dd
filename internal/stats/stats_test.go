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

func TestScalars(t *testing.T) {
	s := NewSet()
	s.SetScalar("ipc", 1.25)
	if got := s.Scalar("ipc"); got != 1.25 {
		t.Errorf("ipc = %v, want 1.25", got)
	}
	if got := s.Scalar("absent"); got != 0 {
		t.Errorf("absent = %v, want 0", got)
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

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 3, 7} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Bucket(1) != 2 {
		t.Errorf("Bucket(1) = %d, want 2", h.Bucket(1))
	}
	if h.Overflow() != 1 {
		t.Errorf("Overflow = %d, want 1", h.Overflow())
	}
	if h.Min() != 0 || h.Max() != 7 {
		t.Errorf("Min/Max = %d/%d, want 0/7", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-12.0/5.0) > 1e-12 {
		t.Errorf("Mean = %v, want 2.4", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(2)
	h.Observe(-5)
	if h.Bucket(0) != 1 {
		t.Errorf("negative sample not clamped to bucket 0")
	}
}

func TestHistogramMeanProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram(64)
		sum := 0
		for _, v := range vals {
			h.Observe(int(v))
			sum += int(v)
		}
		if len(vals) == 0 {
			return h.Mean() == 0
		}
		want := float64(sum) / float64(len(vals))
		return math.Abs(h.Mean()-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := NewHistogram(0) // degenerate size must not panic
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(0)
	if h.Count() != 1 {
		t.Error("degenerate histogram should still count")
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(8)
	for _, v := range []int{0, 2, 2, 5, 7, 31} {
		h.Observe(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Histogram
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(h, &got) {
		t.Errorf("round trip changed the histogram:\n got %+v\nwant %+v", got, *h)
	}
	// An unmarshaled histogram keeps observing with the original range.
	got.Observe(100)
	if got.Overflow() != h.Overflow()+1 {
		t.Errorf("overflow after re-observe = %d, want %d", got.Overflow(), h.Overflow()+1)
	}
}

func TestHistogramJSONEmptyRoundTrip(t *testing.T) {
	h := NewHistogram(4)
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Histogram
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(h, &got) {
		t.Errorf("empty round trip changed the histogram:\n got %+v\nwant %+v", got, *h)
	}
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram(4)
	h.Observe(1)
	c := h.Clone()
	h.Observe(1)
	h.Observe(9)
	if c.Count() != 1 || c.Bucket(1) != 1 || c.Overflow() != 0 {
		t.Errorf("clone mutated by later observes: %+v", *c)
	}
	if (*Histogram)(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

func TestHistogramDelta(t *testing.T) {
	h := NewHistogram(8)
	h.Observe(1)
	h.Observe(20) // pre-window overflow
	start := h.Clone()
	h.Observe(3)
	h.Observe(3)
	h.Observe(30)
	d := h.Delta(start)
	if d.Count() != 3 || d.Bucket(3) != 2 || d.Bucket(1) != 0 || d.Overflow() != 1 {
		t.Errorf("delta wrong: %+v", *d)
	}
	if d.Sum() != 36 {
		t.Errorf("delta sum = %d, want 36", d.Sum())
	}
	if d.Min() != 3 {
		t.Errorf("delta min = %d, want 3", d.Min())
	}
	// Window saw overflow, so Max falls back to the run-wide maximum.
	if d.Max() != 30 {
		t.Errorf("delta max = %d, want 30", d.Max())
	}
	if got := h.Delta(nil); !reflect.DeepEqual(got, h) {
		t.Errorf("Delta(nil) should copy: %+v", *got)
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
	s.SetScalar("x", 0.5)
	out := s.String()
	if !strings.Contains(out, "n=2") || !strings.Contains(out, "x=0.5") {
		t.Errorf("String output wrong:\n%s", out)
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	s := NewSet()
	s.Add("l1.hits", 1234)
	s.Add("l1.misses", 56)
	s.SetScalar("ln.transport_ratio", 1.013)
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
	if back.Scalar("ln.transport_ratio") != 1.013 {
		t.Errorf("scalar lost: %s", back.String())
	}
	// The restored set must be fully usable, not just readable.
	back.Add("l1.hits", 1)
	back.SetScalar("new", 2)
	if back.Counter("l1.hits") != 1235 || back.Scalar("new") != 2 {
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
	s.SetScalar("y", 1)
	if s.Counter("x") != 1 || s.Scalar("y") != 1 {
		t.Error("empty-restored set unusable")
	}
}

func TestMergePrefixedAndSub(t *testing.T) {
	core := NewSet()
	core.Add("core.committed", 100)
	core.Add("l1.misses", 7)
	core.SetScalar("core.ipc", 1.5)

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
	if got := all.Scalar("c1.core.ipc"); got != 1.5 {
		t.Fatalf("c1.core.ipc = %v", got)
	}

	c0 := all.Sub("c0")
	if got := c0.Counter("core.committed"); got != 100 {
		t.Fatalf("Sub counter = %d", got)
	}
	if got := c0.Scalar("core.ipc"); got != 1.5 {
		t.Fatalf("Sub scalar = %v", got)
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
