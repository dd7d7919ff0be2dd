package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// The reflective codec wire.go replaced, verbatim: json.Marshal and
// json.Unmarshal of the wire struct. It is the reference the append
// encoder must match byte for byte and the scanning decoder must agree
// with on every input.

func refSetMarshal(s *Set) ([]byte, error) {
	return json.Marshal(setJSON{Counters: s.counters})
}

func refSetUnmarshal(s *Set, data []byte) error {
	var w setJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	s.counters = w.Counters
	if s.counters == nil {
		s.counters = make(map[string]uint64)
	}
	return nil
}

// realResult is the statistics of a stored quick-mode result (LN3-144KB,
// 403.gcc, seed 1): 56 counters.
func realResult(t testing.TB) []byte {
	t.Helper()
	return storedMember(t, "testdata/quick_ln3_403gcc.json", "stats")
}

// legacyResult is the same result's statistics as lnuca-job-v5 stored
// them, before the set held counters only: 54 counters and a "scalars"
// member, which no encoder writes any more and a decoder must read as
// encoding/json does.
func legacyResult(t testing.TB) []byte {
	t.Helper()
	return storedMember(t, "testdata/quick_ln3_403gcc_v5.json", "stats")
}

// legacyHistogram is the load-latency histogram lnuca-job-v5 stored beside
// that set: 512 buckets, a count, a sum, a min, a max and an overflow.
func legacyHistogram(t testing.TB) []byte {
	t.Helper()
	return storedMember(t, "testdata/quick_ln3_403gcc_v5.json", "load_latency")
}

// storedMember is the named member of the stored result in file, as stored.
func storedMember(t testing.TB, file, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var entry map[string]json.RawMessage
	if err := json.Unmarshal(data, &entry); err != nil {
		t.Fatal(err)
	}
	if entry[name] == nil {
		t.Fatalf("%s stores no %q", file, name)
	}
	return entry[name]
}

// awkwardKeys are names encoding/json escapes, replaces or quotes
// specially.
var awkwardKeys = []string{
	"", "a<b", "a>b", "a&b", `say "hi"`, `back\slash`, "bell\x07", "tab\there", "del\x7f",
	"line\u2028sep", "para\u2029sep", "caché.hits", "bad\xff\xfeutf8", "\xc3", "ünï.ç", "e\u0301",
}

func randomSet(rng *rand.Rand) *Set {
	s := &Set{}
	if rng.Intn(8) == 0 {
		return s
	}
	s.counters = map[string]uint64{}
	key := func() string {
		if rng.Intn(6) == 0 {
			return awkwardKeys[rng.Intn(len(awkwardKeys))] + fmt.Sprint(rng.Intn(3))
		}
		return fmt.Sprintf("l%d.bank%d.hits", rng.Intn(4), rng.Intn(64))
	}
	for n := rng.Intn(201); n > 0; n-- {
		v := rng.Uint64() >> uint(rng.Intn(64))
		if rng.Intn(16) == 0 {
			v = math.MaxUint64
		}
		s.counters[key()] = v
	}
	return s
}

// TestWireEncodeMatchesReflective: the append encoder writes exactly the
// reflective encoder's bytes.
func TestWireEncodeMatchesReflective(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sets := []*Set{{}, NewSet(), {counters: map[string]uint64{}}}
	for _, k := range awkwardKeys {
		sets = append(sets, &Set{counters: map[string]uint64{k: 1, "z": 0}})
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
	real := realResult(f)
	literals := append(numberSeeds(`{"counters":{"a":%s}}`, `{"scalars":{"a":%s}}`, `{"counters":{"a":1,"b":%s},"scalars":{"x":2}}`),
		`{}`, ` { } `, `null`, `[]`, `{"counters":null}`, `{"counters":{}}`, `{"scalars":{}}`, `{"scalars":null}`,
		`{"counters":{"a":1},"counters":{"b":2}}`, `{"scalars":{"a":1},"scalars":{"b":2}}`, `{"counters":{"a":1,"a":2}}`,
		`{"Counters":{"a":1}}`, `{"COUNTERS":{"a":1},"counters":{"b":2}}`, `{"counter\u0073":{"a":1}}`, `{"counterſ":{"a":1}}`,
		`{"counters":{"a\u0062":1}}`, `{"counters":{"a\\b":1}}`, `{"counters":{"a\"b":1}}`, `{"counters":{"é":1}}`, "{\"counters\":{\"a\xffb\":1}}",
		"{\"counters\":{\"a\x01b\":1}}", "{\"counters\":{\"a\x7fb\":1}}", `{"counters":{"":1}}`, `{"counters":{"a":1,}}`, `{"counters":{,"a":1}}`,
		`{"counters":{"a":1}},`, `{"counters":{"a":1} "scalars":{}}`, `{"counters":{"a" 1}}`, `{"counters":{a:1}}`, `{"scalars"{}}`, `{"counters" {"a":1}}`, `{"counters":[1]}`,
		`{"extra":1,"counters":{"a":1}}`, `{"counters":{"}":1,":":2,"{":3,",":4}}`, "{\"counters\":{\"a\":1}}\x00", "{\"counters\":{\"a\":1\x00}}")
	for _, seed := range append(wireSeeds(real, literals...), wireSeeds(legacyResult(f))...) {
		f.Add(seed)
	}
	f.Fuzz(agreesWithReference)
}

// FuzzHistogramJSON is FuzzSetJSON over the load-latency histogram
// lnuca-job-v5 stored beside the set, and its shapes: an object of
// members no set has, which the scanning decoder must leave to
// encoding/json and agree with, as it does for any other bytes.
func FuzzHistogramJSON(f *testing.F) {
	literals := append(numberSeeds(`{"buckets":[%s]}`, `{"buckets":[1,%s],"count":1}`, `{"buckets":[1],"count":%s}`, `{"buckets":[1],"min":%s}`, `{"max":%s}`, `{"overflow":%s,"sum":%[1]s}`),
		`{}`, `null`, `[]`, `{"buckets":[]}`, `{"buckets":null}`, `{"buckets":[ ]}`, `{"buckets":[],"count":0,"sum":0}`,
		`{"buckets":[1],"buckets":[2,3]}`, `{"buckets":[1,2],"buckets":[]}`, `{"count":1,"count":2}`, `{"Buckets":[1]}`, `{"COUNT":3}`, `{"buckets":[1],"Count":2,"count":3}`,
		`{"buckets":[1,]}`, `{"buckets":[,1]}`, `{"buckets":[1 2]}`, `{"buckets":[1]],"count":1}`, `{"buckets":{"0":1}}`, `{"buckets":[[1]]}`, `{"buckets"[]}`, `{"count" 1}`,
		`{"min":-3,"max":-1,"count":1}`, `{"min":9223372036854775808}`, `{"max":9223372036854775807,"count":1}`, `{"extra":1}`, `{"coun\u0074":1}`,
		`{"buckets":[1],"count":1,"sum":0,"min":0,"max":0,"overflow":0}`, "{\"count\":1}\x00", `{"count":1}}`, `{"count":1},`)
	for _, seed := range wireSeeds(legacyHistogram(f), literals...) {
		f.Add(seed)
	}
	f.Fuzz(agreesWithReference)
}

// agreesWithReference: the scanning decoder and the reflective one agree
// on whether data is a Set, on the Set, and on its encoding.
func agreesWithReference(t *testing.T, data []byte) {
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
}

// TestWireRealResultTakesFastPath: a stored result's set is in the
// canonical shape — the scanner decodes it, byte-identically to the
// reference — and a round trip through encoding/json allocates per object,
// not per member (the reflective codec: 260).
func TestWireRealResultTakesFastPath(t *testing.T) {
	setText := realResult(t)
	p := Scanner{Src: string(setText)}
	w, ok := p.set()
	if !ok || !p.End() || len(w.Counters) != 56 {
		t.Fatalf("scanning a stored result's set: ok=%v, %d counters; want the 56 it holds", ok, len(w.Counters))
	}

	set := NewSet()
	if err := json.Unmarshal(setText, set); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		b, err := json.Marshal(set)
		if err != nil || !bytes.Equal(b, setText) {
			t.Fatalf("re-encoding differs from the stored bytes (%v)", err)
		}
		if err := json.Unmarshal(b, NewSet()); err != nil {
			t.Fatal(err)
		}
	})
	if n > 20 {
		t.Errorf("stats round trip: %.0f allocations, want <= 20", n)
	}
}
