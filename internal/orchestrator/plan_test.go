package orchestrator

// The plans against their reference, encoding/json: every field of a record,
// its job, mode and timeline, and of a request, set in turn to values that
// encoding/json escapes, refuses or renders in some other form, must write
// and read as json.Marshal and json.Unmarshal do. A field added to one of
// these structs with a type no case here covers fails the test, so the
// plans cannot drift from the structs unseen.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

var awkwardStrings = []string{"", "403.gcc", "<L2>&amp;", `"q" \ text`, "  ", "bad \xff\xfe utf-8", "line\nbreak\ttab\x00", "naïve – 漢字", "line\u2028sep\u2029", "\x7f"}

var awkwardTimes = []time.Time{
	{},
	time.Date(2026, 10, 3, 12, 0, 0, 123456789, time.UTC),
	time.Date(2026, 10, 3, 12, 0, 0, 0, time.FixedZone("", 3600+30)),
	time.Date(0, 1, 1, 0, 0, 0, 0, time.FixedZone("", -(23*3600+59*60))),
	time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
	time.Now(),
}

// awkwardValues are the values a field of type t is set to in turn.
func awkwardValues(t *testing.T, typ reflect.Type) []reflect.Value {
	var out []reflect.Value
	add := func(v interface{}) {
		rv := reflect.ValueOf(v)
		if rv.Type().ConvertibleTo(typ) {
			out = append(out, rv.Convert(typ))
		}
	}
	switch {
	case typ == timeType:
		for _, at := range awkwardTimes {
			add(at)
		}
	case typ == reflect.PointerTo(timeType):
		out = append(out, reflect.Zero(typ))
		for i := range awkwardTimes {
			out = append(out, reflect.ValueOf(&awkwardTimes[i]))
		}
	case typ == resultType:
		for _, res := range wireResults(t) {
			out = append(out, reflect.ValueOf(res))
		}
	case typ.Kind() == reflect.String:
		for _, s := range awkwardStrings {
			add(s)
		}
	case typ.Kind() == reflect.Bool:
		add(false)
		add(true)
	case typ.Kind() >= reflect.Int && typ.Kind() <= reflect.Int64:
		for _, n := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
			if !reflect.Zero(typ).OverflowInt(n) {
				add(n)
			}
		}
	case typ.Kind() >= reflect.Uint && typ.Kind() <= reflect.Uint64:
		for _, n := range []uint64{0, 1, math.MaxUint64} {
			if !reflect.Zero(typ).OverflowUint(n) {
				add(n)
			}
		}
	case typ.Kind() == reflect.Float64:
		for _, f := range []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-7, 1e21, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
			add(f)
		}
	case typ == reflect.TypeOf([]string(nil)):
		for _, l := range [][]string{nil, {}, {"403.gcc", "470.lbm"}, awkwardStrings} {
			add(l)
		}
	case typ == reflect.TypeOf(map[string]float64(nil)):
		for _, m := range []map[string]float64{nil, {}, {"ln.link_buf": 1, "<&> ": 0.5}} {
			add(m)
		}
	default:
		t.Fatalf("no awkward values for a field of type %v", typ)
	}
	return out
}

// eachField calls f with each settable field under struct v, a time.Time
// whole and every other struct field by field, named by its path.
func eachField(v reflect.Value, path string, f func(string, reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		fv, name := v.Field(i), path+"."+v.Type().Field(i).Name
		switch {
		case !fv.CanSet():
		case fv.Kind() == reflect.Struct && fv.Type() != timeType:
			eachField(fv, name, f)
		default:
			f(name, fv)
		}
	}
}

// eachAwkward sets each field under *v in turn to each of its awkward
// values, calls check, and restores the field.
func eachAwkward(t *testing.T, v interface{}, check func(field string)) {
	eachField(reflect.ValueOf(v).Elem(), "", func(name string, fv reflect.Value) {
		was := reflect.New(fv.Type()).Elem()
		was.Set(fv)
		for i, val := range awkwardValues(t, fv.Type()) {
			fv.Set(val)
			check(fmt.Sprintf("%s #%d", name, i))
		}
		fv.Set(was)
	})
}

// TestRecordPlanMatchesEncodingJSON: a record writes as json.Marshal writes
// it, alone, by pointer and in a list, and fails with its error, whatever
// any one field holds; and the plan itself writes every record
// json.Marshal can.
func TestRecordPlanMatchesEncodingJSON(t *testing.T) {
	p := planOf(reflect.TypeOf(JobRecord{}))
	if p == nil || !p.writes {
		t.Fatal("JobRecord has no plan that writes it")
	}
	base := wireRecords(t)[2]
	started := base.Timeline.SubmittedAt.Add(time.Millisecond)
	base.Timeline.StartedAt, base.Timeline.FinishedAt = &started, &started
	base.Job.MixBenchmarks = []string{"403.gcc"}
	rec := base
	cases := 0
	eachAwkward(t, &rec, func(field string) {
		cases++
		want, werr := json.Marshal(rec)
		for _, v := range []interface{}{rec, &rec, SweepSubmission{ID: "s", Jobs: []JobRecord{rec, base}}} {
			ref, _ := json.Marshal(v)
			got, err := AppendJSON(nil, v)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() || err == nil && !bytes.Equal(got, ref) {
				t.Fatalf("%s: %T wrote (%v)\n%s\njson.Marshal (%v)\n%s", field, v, err, got, werr, ref)
			}
		}
		if werr == nil {
			got, ok := p.write(nil, reflect.ValueOf(rec))
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("%s: the plan wrote (%v)\n%s\nwant\n%s", field, ok, got, want)
			}
		}
	})
	if cases < 150 {
		t.Fatalf("%d cases: the walk no longer reaches every field", cases)
	}
}

// TestRequestPlanMatchesEncodingJSON: a request as json.Marshal writes it
// reads as json.Unmarshal reads it whatever any one field holds, and the
// plan itself reads each one whose strings are printable ASCII without
// escapes and whose numbers are not negative.
func TestRequestPlanMatchesEncodingJSON(t *testing.T) {
	p := planOf(reflect.TypeOf(Request{}))
	req := goldenRequests(t)[3]
	taken := 0
	eachAwkward(t, &req, func(field string) {
		data, err := json.Marshal(req)
		if err != nil {
			return // NaN or an infinity in the machine member
		}
		var got, want, planned Request
		err, werr := Unmarshal(bytes.Clone(data), &got), json.Unmarshal(data, &want)
		if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s read as %+v (%v), json.Unmarshal %+v (%v)", field, data, got, err, want, werr)
		}
		plain := len(req.Machine) == 0 && !strings.Contains(string(data), `\`) && !strings.Contains(string(data), ":-")
		for _, c := range data {
			plain = plain && c >= ' ' && c < utf8.RuneSelf
		}
		if ok := p.read(data, reflect.ValueOf(&planned).Elem()); ok != plain || ok && !reflect.DeepEqual(planned, want) {
			t.Fatalf("%s: the plan read %s (%v) as %+v", field, data, ok, planned)
		}
		if plain {
			taken++
		}
	})
	if taken < 30 {
		t.Fatalf("the plan read %d requests: it no longer takes plain ones", taken)
	}
}

// FuzzRequestJSON: whatever the bytes, Unmarshal reads a Request as
// json.Unmarshal does: the same error text, and the same value, partial
// ones included.
func FuzzRequestJSON(f *testing.F) {
	for _, req := range goldenRequests(f) {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		for n := 0; n < len(data); n += 7 {
			f.Add(data[:n])
		}
	}
	for _, text := range []string{
		`{}`, `null`, `[]`, `""`, `0`, ` { } `, "\ufeff{}", `{}x`, `{},`, `{"mode":"full",}`, `{"mode":"full"` + "\x00}",
		`{"hierarchy":"ln+l3","benchmark":"403.gcc"}`, `{"hierarchy":"ln+l3","Benchmark":"403.gcc"}`, `{"HIERARCHY":"x"}`, `{"ſeed":1}`, `{"unknown":1,"seed":2}`,
		`{"hierarchy":"a","hierarchy":"b"}`, `{"seed":1,"seed":2}`, `{"hierarchy":"ab"}`, `{"hierarchy":"a"}`, `{"hierarchy":"<&>"}`, `{"hierarchy":"é"}`, "{\"hierarchy\":\"\xff\"}", "{\"hierarchy\":\"a\x01\"}", "{\"mix\":\"\x7f\"}",
		`{"levels":-1}`, `{"levels":-0}`, `{"levels":9223372036854775807}`, `{"levels":9223372036854775808}`, `{"seed":18446744073709551615}`, `{"seed":18446744073709551616}`, `{"seed":-1}`,
		`{"levels":1.0}`, `{"levels":1e2}`, `{"levels":01}`, `{"levels":"3"}`, `{"levels":true}`, `{"hierarchy":3}`, `{"hierarchy":null}`, `{"levels":null}`, `{"hierarchy":["a"]}`, `{"hierarchy":{}}`,
		`{"machine":{"ln.link_buf":1}}`, `{"machine":null,"seed":3}`, `{"machine":{"a":"b"}}`, ` {"mode" : "full" , "seed"	:	2 } `, `{"mode":"full" "seed":2}`, `{"mode":"full",,"seed":2}`,
		`{"schema":"lnuca-run-v1","hierarchy":"dn-4x8","levels":0,"benchmark":"429.mcf","cores":0,"mix":"","trace":"","mode":"quick","warmup":0,"measure":0,"seed":0,"priority":0}`,
	} {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want Request
		err, werr := Unmarshal(bytes.Clone(data), &got), json.Unmarshal(data, &want)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%q: Unmarshal error %v, json.Unmarshal's %v", data, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: read %+v, json.Unmarshal %+v", data, got, want)
		}
	})
}

// TestJobIDMatchesSprintf: job IDs are zero-padded to six digits and grow
// past them.
func TestJobIDMatchesSprintf(t *testing.T) {
	for _, seq := range []uint64{0, 1, 9, 10, 99999, 100000, 999999, 1000000, 123456789, math.MaxUint64} {
		if got, want := jobID(seq), fmt.Sprintf("job-%06d", seq); got != want {
			t.Errorf("jobID(%d) = %q, want %q", seq, got, want)
		}
	}
}
