package stats

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// The reflective codec wire.go replaced, verbatim: json.Marshal and
// json.Unmarshal of the two wire structs. It is the reference the append
// encoder must match byte for byte and the scanning decoder must agree
// with on every input.

func refSetMarshal(s *Set) ([]byte, error) {
	return json.Marshal(setJSON{Counters: s.counters, Scalars: s.scalars})
}

func refSetUnmarshal(s *Set, data []byte) error {
	var w setJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	s.counters = w.Counters
	s.scalars = w.Scalars
	if s.counters == nil {
		s.counters = make(map[string]uint64)
	}
	if s.scalars == nil {
		s.scalars = make(map[string]float64)
	}
	return nil
}

func refHistogramMarshal(h *Histogram) ([]byte, error) {
	return json.Marshal(histogramJSON{
		Buckets:  h.buckets,
		Overflow: h.overflow,
		Count:    h.count,
		Sum:      h.sum,
		Min:      h.Min(),
		Max:      h.Max(),
	})
}

func refHistogramUnmarshal(h *Histogram, data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Buckets == nil {
		w.Buckets = make([]uint64, 1)
	}
	*h = Histogram{
		buckets:  w.Buckets,
		overflow: w.Overflow,
		count:    w.Count,
		sum:      w.Sum,
		min:      w.Min,
		max:      w.Max,
		any:      w.Count > 0,
	}
	return nil
}

// realResult is the statistics and load-latency histogram of a stored
// quick-mode result (LN3-144KB, 403.gcc, seed 1): 54 counters, 4 scalars,
// 512 buckets.
func realResult(t testing.TB) (set, hist []byte) {
	t.Helper()
	data, err := os.ReadFile("testdata/quick_ln3_403gcc.json")
	if err != nil {
		t.Fatal(err)
	}
	var entry struct {
		Stats       json.RawMessage `json:"stats"`
		LoadLatency json.RawMessage `json:"load_latency"`
	}
	if err := json.Unmarshal(data, &entry); err != nil {
		t.Fatal(err)
	}
	return entry.Stats, entry.LoadLatency
}

// awkwardKeys are names encoding/json escapes, replaces or quotes
// specially; awkwardFloats sit on its format cutoffs.
var (
	awkwardKeys = []string{
		"", "a<b", "a>b", "a&b", `say "hi"`, `back\slash`, "bell\x07", "tab\there", "del\x7f",
		"line\u2028sep", "para\u2029sep", "caché.hits", "bad\xff\xfeutf8", "\xc3", "ünï.ç", "e\u0301",
	}
	awkwardFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.99e-7, -9.99e-7, 1e20, 1e21, -1e21, 1.5e300,
		5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-9, 1.25e-10, 123456789.125,
	}
)

func randomSet(rng *rand.Rand) *Set {
	s := &Set{}
	if rng.Intn(8) > 0 {
		s.counters = map[string]uint64{}
	}
	if rng.Intn(4) > 0 {
		s.scalars = map[string]float64{}
	}
	key := func() string {
		if rng.Intn(6) == 0 {
			return awkwardKeys[rng.Intn(len(awkwardKeys))] + fmt.Sprint(rng.Intn(3))
		}
		return fmt.Sprintf("l%d.bank%d.hits", rng.Intn(4), rng.Intn(64))
	}
	if s.counters != nil {
		for n := rng.Intn(201); n > 0; n-- {
			v := rng.Uint64() >> uint(rng.Intn(64))
			if rng.Intn(16) == 0 {
				v = math.MaxUint64
			}
			s.counters[key()] = v
		}
	}
	if s.scalars != nil {
		for n := rng.Intn(12); n > 0; n-- {
			f := awkwardFloats[rng.Intn(len(awkwardFloats))]
			if rng.Intn(2) == 0 {
				if f = math.Float64frombits(rng.Uint64()); math.IsNaN(f) || math.IsInf(f, 0) {
					f = rng.NormFloat64()
				}
			}
			s.scalars[key()] = f
		}
	}
	return s
}

func randomHistogram(rng *rand.Rand) *Histogram {
	if rng.Intn(50) == 0 {
		return &Histogram{}
	}
	h := NewHistogram(1 + rng.Intn(600))
	if rng.Intn(10) == 0 {
		return h // nothing observed
	}
	for n := rng.Intn(400); n > 0; n-- {
		h.Observe(rng.Intn(2*len(h.buckets)) - 3)
	}
	if rng.Intn(8) == 0 { // counts no run reaches, set directly
		h.buckets[rng.Intn(len(h.buckets))] = math.MaxUint64
		h.overflow, h.count, h.sum = math.MaxUint64, math.MaxUint64, math.MaxUint64-1
		h.any = true
	}
	return h
}

// TestWireEncodeMatchesReflective: the append encoders write exactly the
// reflective encoder's bytes, and fail exactly as it does.
func TestWireEncodeMatchesReflective(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sets := []*Set{{}, NewSet(), {counters: map[string]uint64{}}, {scalars: map[string]float64{"x": 1}}}
	for _, k := range awkwardKeys {
		for _, f := range awkwardFloats {
			sets = append(sets, &Set{counters: map[string]uint64{k: 1, "z": 0}, scalars: map[string]float64{k: f}})
		}
	}
	for len(sets) < 2500 {
		sets = append(sets, randomSet(rng))
	}
	for i, s := range sets {
		got, err := s.MarshalJSON()
		want, werr := refSetMarshal(s)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("set %d:\n got %s (%v)\nwant %s (%v)", i, got, err, want, werr)
		}
		if nested, err := json.Marshal(map[string]*Set{"stats": s}); err != nil || !bytes.Equal(nested, append(append([]byte(`{"stats":`), want...), '}')) {
			t.Fatalf("set %d inside a document: %s (%v), reference %s", i, nested, err, want)
		}
	}

	hists := []*Histogram{{}, NewHistogram(1), NewHistogram(512)}
	for len(hists) < 2000 {
		hists = append(hists, randomHistogram(rng))
	}
	for i, h := range hists {
		got, err := h.MarshalJSON()
		want, werr := refHistogramMarshal(h)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("histogram %d:\n got %s (%v)\nwant %s (%v)", i, got, err, want, werr)
		}
	}

	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// A finite scalar sorted before and after: the first bad one is reported.
		s := &Set{counters: map[string]uint64{"n": 1}, scalars: map[string]float64{"a": 1, "m": f, "z": 2}}
		_, err := s.MarshalJSON()
		_, werr := refSetMarshal(s)
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) || werr == nil || err.Error() != werr.Error() {
			t.Errorf("scalar %v: MarshalJSON error %v, reference %v", f, err, werr)
		}
		_, err = json.Marshal(s)
		var wrapped *json.MarshalerError
		if !errors.As(err, &wrapped) || wrapped.Type != reflect.TypeOf(s) || wrapped.Unwrap().Error() != werr.Error() {
			t.Errorf("scalar %v: json.Marshal error %v, want the reference's %q from *stats.Set's MarshalJSON", f, err, werr)
		}
	}
}

// wireSeeds is the fuzzers' corpus around one real sub-object: the entry,
// every truncation of it, whitespace and garbage around it, and the
// literal shapes the scanning decoder must leave to encoding/json.
func wireSeeds(real []byte, literals ...string) [][]byte {
	seeds := [][]byte{real}
	for i := range real {
		seeds = append(seeds, real[:i])
	}
	around := func(before, after string) []byte {
		return append(append([]byte(before), real...), after...)
	}
	seeds = append(seeds, around(" \t\r\n", " \n\t\r"), around("", "x"), around("", "{}"), around("", "\x00"), around("\ufeff", ""),
		bytes.ReplaceAll(bytes.ReplaceAll(real, []byte(","), []byte(" ,\n\t")), []byte(":"), []byte(" : ")))
	for _, l := range literals {
		seeds = append(seeds, []byte(l))
	}
	return seeds
}

// numberSeeds puts each awkward number literal where a value goes.
func numberSeeds(shapes ...string) []string {
	var out []string
	for _, shape := range shapes {
		for _, n := range []string{
			"0", "01", "-0", "-1", "1.", "1.0", "1.5", ".5", "1e2", "1E+2", "1e", "1e999", "-1e999", "1e-999", "+1", "-", "0x10", "1_0",
			"18446744073709551615", "18446744073709551616", "9223372036854775807", "9223372036854775808", "184467440737095516150",
			"00", "1 2", "null", "true", `"1"`, "[]", "{}", "NaN", "Infinity", "",
		} {
			out = append(out, fmt.Sprintf(shape, n))
		}
	}
	return out
}

// FuzzSetJSON: whatever the bytes, the scanning decoder and the reflective
// one agree on whether they are a Set, on the Set, and on its encoding.
func FuzzSetJSON(f *testing.F) {
	real, _ := realResult(f)
	literals := append(numberSeeds(`{"counters":{"a":%s}}`, `{"scalars":{"a":%s}}`, `{"counters":{"a":1,"b":%s},"scalars":{"x":2}}`),
		`{}`, ` { } `, `null`, `[]`, `{"counters":null}`, `{"counters":{}}`, `{"scalars":{}}`, `{"scalars":null}`,
		`{"counters":{"a":1},"counters":{"b":2}}`, `{"scalars":{"a":1},"scalars":{"b":2}}`, `{"counters":{"a":1,"a":2}}`,
		`{"Counters":{"a":1}}`, `{"COUNTERS":{"a":1},"counters":{"b":2}}`, `{"counter\u0073":{"a":1}}`, `{"counterſ":{"a":1}}`,
		`{"counters":{"a\u0062":1}}`, `{"counters":{"a\\b":1}}`, `{"counters":{"a\"b":1}}`, `{"counters":{"é":1}}`, "{\"counters\":{\"a\xffb\":1}}",
		"{\"counters\":{\"a\x01b\":1}}", "{\"counters\":{\"a\x7fb\":1}}", `{"counters":{"":1}}`, `{"counters":{"a":1,}}`, `{"counters":{,"a":1}}`,
		`{"counters":{"a":1}},`, `{"counters":{"a":1} "scalars":{}}`, `{"counters":{"a" 1}}`, `{"counters":{a:1}}`, `{"scalars"{}}`, `{"counters" {"a":1}}`, `{"counters":[1]}`,
		`{"extra":1,"counters":{"a":1}}`, `{"counters":{"}":1,":":2,"{":3,",":4}}`, "{\"counters\":{\"a\":1}}\x00", "{\"counters\":{\"a\":1\x00}}")
	for _, seed := range wireSeeds(real, literals...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want Set
		err, werr := got.UnmarshalJSON(data), refSetUnmarshal(&want, data)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%q: UnmarshalJSON error %v, reference %v", data, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("%q: decoded %+v, reference %+v", data, got, want)
		}
		enc, err := got.MarshalJSON()
		wenc, werr := refSetMarshal(&want)
		if err != nil || werr != nil || !bytes.Equal(enc, wenc) {
			t.Fatalf("%q: re-encoded %s (%v), reference %s (%v)", data, enc, err, wenc, werr)
		}
	})
}

// FuzzHistogramJSON is FuzzSetJSON for the histogram.
func FuzzHistogramJSON(f *testing.F) {
	_, real := realResult(f)
	literals := append(numberSeeds(`{"buckets":[%s]}`, `{"buckets":[1,%s],"count":1}`, `{"buckets":[1],"count":%s}`, `{"buckets":[1],"min":%s}`, `{"max":%s}`, `{"overflow":%s,"sum":%[1]s}`),
		`{}`, `null`, `[]`, `{"buckets":[]}`, `{"buckets":null}`, `{"buckets":[ ]}`, `{"buckets":[],"count":0,"sum":0}`,
		`{"buckets":[1],"buckets":[2,3]}`, `{"buckets":[1,2],"buckets":[]}`, `{"count":1,"count":2}`, `{"Buckets":[1]}`, `{"COUNT":3}`, `{"buckets":[1],"Count":2,"count":3}`,
		`{"buckets":[1,]}`, `{"buckets":[,1]}`, `{"buckets":[1 2]}`, `{"buckets":[1]],"count":1}`, `{"buckets":{"0":1}}`, `{"buckets":[[1]]}`, `{"buckets"[]}`, `{"count" 1}`,
		`{"min":-3,"max":-1,"count":1}`, `{"min":9223372036854775808}`, `{"max":9223372036854775807,"count":1}`, `{"extra":1}`, `{"coun\u0074":1}`,
		`{"buckets":[1],"count":1,"sum":0,"min":0,"max":0,"overflow":0}`, "{\"count\":1}\x00", `{"count":1}}`, `{"count":1},`)
	for _, seed := range wireSeeds(real, literals...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want Histogram
		err, werr := got.UnmarshalJSON(data), refHistogramUnmarshal(&want, data)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%q: UnmarshalJSON error %v, reference %v", data, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("%q: decoded %+v, reference %+v", data, got, want)
		}
		enc, err := got.MarshalJSON()
		wenc, werr := refHistogramMarshal(&want)
		if err != nil || werr != nil || !bytes.Equal(enc, wenc) {
			t.Fatalf("%q: re-encoded %s (%v), reference %s (%v)", data, enc, err, wenc, werr)
		}
	})
}

// TestWireRealResultTakesFastPath: a stored result's sub-objects are in
// the canonical shape — the scanner decodes them, byte-identically to the
// reference — and a round trip through encoding/json allocates per object,
// not per member (the reflective codec: 260 and 23).
func TestWireRealResultTakesFastPath(t *testing.T) {
	setText, histText := realResult(t)
	p := Scanner{Src: string(setText)}
	w, ok := p.set()
	if !ok || !p.End() || len(w.Counters) != 54 || len(w.Scalars) != 4 {
		t.Fatalf("scanning a stored result's set: ok=%v, %d counters, %d scalars; want the 54 and 4 it holds", ok, len(w.Counters), len(w.Scalars))
	}
	p = Scanner{Src: string(histText)}
	hw, ok := p.histogram()
	if !ok || !p.End() || len(hw.Buckets) != 512 {
		t.Fatalf("scanning a stored result's histogram: ok=%v, %d buckets; want its 512", ok, len(hw.Buckets))
	}

	set, hist := NewSet(), NewHistogram(1)
	if err := json.Unmarshal(setText, set); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(histText, hist); err != nil {
		t.Fatal(err)
	}
	roundTrip := func(v interface{}, stored []byte, back func() interface{}) float64 {
		return testing.AllocsPerRun(200, func() {
			b, err := json.Marshal(v)
			if err != nil || !bytes.Equal(b, stored) {
				t.Fatalf("re-encoding differs from the stored bytes (%v)", err)
			}
			if err := json.Unmarshal(b, back()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := roundTrip(set, setText, func() interface{} { return NewSet() }); n > 20 {
		t.Errorf("stats round trip: %.0f allocations, want <= 20", n)
	}
	if n := roundTrip(hist, histText, func() interface{} { return NewHistogram(1) }); n > 12 {
		t.Errorf("load_latency round trip: %.0f allocations, want <= 12", n)
	}
}
