package orchestrator

// The record writer and reader against their reference, encoding/json:
// AppendJSON's bytes are json.NewEncoder's, Unmarshal's values and errors
// json.Unmarshal's.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/hier"
	"repro/internal/stats"
)

// realResult is a stored result as a store file holds it.
func realResult(tb testing.TB) []byte {
	tb.Helper()
	return testdata(tb, "quick_ln3_403gcc.json")
}

// legacyResult is the same result as lnuca-job-v5 stored it, with the
// load-latency histogram and the set's scalars that left the schema.
func legacyResult(tb testing.TB) []byte {
	tb.Helper()
	return testdata(tb, "quick_ln3_403gcc_v5.json")
}

// testdata is the stats package's test file name.
func testdata(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("..", "stats", "testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.TrimSpace(data)
}

// encoded is v as the routes sent it before there was a record writer.
func encoded(tb testing.TB, v interface{}) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// wireResults are results of every provenance a record can carry: none,
// fresh off a run (Phases), an entry of a memory-only cache, an entry a
// file-backed cache put and one it loaded (stored bytes), a 2-core mix, one
// without statistics, one with awkward counter names.
func wireResults(t *testing.T) []*JobResult {
	t.Helper()
	var base JobResult
	if err := json.Unmarshal(realResult(t), &base); err != nil {
		t.Fatal(err)
	}
	fresh := base
	fresh.Phases = &exp.Phases{BuildSeconds: 0.001, WarmupSeconds: 0.002, MeasureSeconds: 0.01, Instructions: 20000, MIPS: 2, SkipRatio: 0.5}
	mix := &JobResult{
		Config: "LN3-144KB x2", Cycles: 40000, Cores: 2, ThroughputIPC: 1.25, WeightedSpeedup: 1.9, Stats: base.Stats,
		PerCore: []exp.CoreResult{{Benchmark: "403.gcc", IPC: 0.5, Committed: 20000}, {Benchmark: "470.lbm", IPC: 0.75, Committed: 30000}},
	}
	awkward := &JobResult{Config: "<L2>&", Benchmark: "\"q\"", IPC: 1e-9, Cycles: 1, Stats: stats.NewSet()}
	awkward.Stats.Add("a<b>&\"c\\\xff", 7)

	dir := t.TempDir()
	disk, memory := NewCache(0, dir), NewCache(0, "")
	out := []*JobResult{nil, &fresh, stubResult(quickJob("403.gcc")), awkward}
	for i, res := range []*JobResult{&base, mix, awkward} {
		key := fmt.Sprint("k", i)
		disk.Put(key, res)
		memory.Put(key, res)
		put, _ := disk.Get(key)
		loaded, _ := NewCache(0, dir).Get(key)
		held, _ := memory.Get(key)
		if put == nil || loaded == nil || held == nil || put.stored == nil || loaded.stored == nil || held.stored != nil {
			t.Fatalf("result %d: entries put=%v loaded=%v held=%v do not carry the bytes they should", i, put, loaded, held)
		}
		out = append(out, put, loaded, held)
	}
	return out
}

// wireRecords is a seeded corpus of records: every status, every optional
// member present and absent, error texts encoding/json escapes or repairs.
func wireRecords(t *testing.T) []JobRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(22))
	results := wireResults(t)
	var jobs []Job
	for _, req := range goldenRequests(t) {
		job, err := req.Job()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	statuses := []Status{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCanceled}
	errs := []string{"", "", "exp: L2-256KB / 470.lbm stalled", `a "quoted" \ text`, "<script>&amp;</script>", "naïve – 漢字", "bad \xff\xfe utf-8", "line\nbreak\ttab\x00"}
	at := time.Date(2026, 10, 3, 12, 0, 0, 123456789, time.UTC)
	coin := func() bool { return rng.Intn(2) == 0 }
	recs := make([]JobRecord, 400)
	for i := range recs {
		rec := JobRecord{
			ID: fmt.Sprintf("job-%06d", i+1), Key: jobs[i%len(jobs)].Key(), Job: jobs[i%len(jobs)],
			Status: statuses[i%len(statuses)], Progress: float64(rng.Intn(5)) / 4,
			Cached: coin(), Coalesced: coin(), Error: errs[rng.Intn(len(errs))], Result: results[rng.Intn(len(results))],
			Timeline: Timeline{SubmittedAt: at, QueueSeconds: rng.Float64()},
		}
		if coin() {
			started := at.Add(time.Millisecond)
			rec.Timeline.StartedAt = &started
		}
		if coin() {
			finished := at.Add(time.Second).In(time.FixedZone("", 3600))
			rec.Timeline.FinishedAt, rec.Timeline.RunSeconds = &finished, 0.999
		}
		if coin() {
			rec.TraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
		}
		if coin() {
			rec.Worker = "w<1>"
		}
		recs[i] = rec
	}
	return recs
}

// TestRecordWireMatchesReflective: what AppendJSON writes, and WriteJSON
// sends, is what json.NewEncoder(w).Encode sent — for a record, a pointer to
// one, a bare result, and the three bodies that list records, two of which
// were maps — and a value that does not encode fails with the same error.
func TestRecordWireMatchesReflective(t *testing.T) {
	check := func(name string, v, reference interface{}) {
		t.Helper()
		want := encoded(t, reference)
		got, err := AppendJSON(nil, v)
		if err != nil || !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("%s: AppendJSON (%v)\n got %s\nwant %s", name, err, got, want)
		}
		w := httptest.NewRecorder()
		WriteJSON(w, http.StatusAccepted, v)
		if w.Code != http.StatusAccepted || !bytes.Equal(w.Body.Bytes(), want) || w.Header().Get("Content-Length") != fmt.Sprint(len(want)) {
			t.Fatalf("%s: WriteJSON sent HTTP %d, Content-Length %s\n got %s\nwant %s", name, w.Code, w.Header().Get("Content-Length"), w.Body, want)
		}
	}
	recs := wireRecords(t)
	spliced := 0
	for i := range recs {
		check(recs[i].ID, recs[i], recs[i])
		check(recs[i].ID+" by pointer", &recs[i], &recs[i])
		check(recs[i].ID+" result", recs[i].Result, recs[i].Result)
		if r := recs[i].Result; r != nil && r.stored != nil {
			spliced++
		}
	}
	if spliced < len(recs)/8 {
		t.Fatalf("%d of %d records carry stored bytes: the corpus no longer tests the splice", spliced, len(recs))
	}
	for _, jobs := range [][]JobRecord{nil, {}, recs[:1], recs[1:40], recs} {
		name := fmt.Sprint(len(jobs), " jobs")
		for _, pruned := range []int{0, 3} {
			st := SweepStatus{ID: "sweep-0001", Total: len(jobs) + pruned, ByState: map[Status]int{StatusDone: len(jobs), StatusQueued: 0}, Pruned: pruned, Done: pruned > 0, Jobs: jobs, Cursor: math.MaxUint64}
			check(name+" in SweepStatus", st, st)
			check(name+" in *SweepStatus", &st, &st)
		}
		check(name+" in SweepSubmission", SweepSubmission{ID: "sweep-0002", Jobs: jobs}, map[string]interface{}{"id": "sweep-0002", "jobs": jobs})
		check(name+" in the GET /v1/jobs list", struct {
			Jobs []JobRecord `json:"jobs"`
		}{jobs}, map[string]interface{}{"jobs": jobs})
	}
	check("no record", map[string]string{"status": "ok"}, map[string]string{"status": "ok"})
	check("nil", nil, nil)
	check("nil record", (*JobRecord)(nil), nil)

	bad := recs[0]
	bad.Result = stubResult(quickJob("403.gcc"))
	bad.Result.IPC = math.NaN()
	nan := recs[1]
	nan.Progress = math.NaN()
	for name, v := range map[string]interface{}{
		"record": bad, "result": bad.Result, "sweep": SweepStatus{Jobs: []JobRecord{recs[2], bad}},
		"record's own member": nan, "sweep's record's own member": &SweepStatus{Jobs: []JobRecord{nan}},
	} {
		_, want := json.Marshal(v)
		if _, err := AppendJSON(nil, v); want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("unencodable %s: AppendJSON error %v, json.Marshal's %v", name, err, want)
		}
	}
}

// TestWireNamesNoOtherMember: the writer and the reader are told a record's
// shape by its struct and spell no member of it themselves but the four the
// design names, so a renamed, added or reordered field cannot leave them
// behind.
func TestWireNamesNoOtherMember(t *testing.T) {
	allowed := map[string]bool{"result": true, "jobs": true, "stats": true}
	var names []string
	for _, v := range []interface{}{JobRecord{}, Job{}, Timeline{}, JobResult{}} {
		for i, typ := 0, reflect.TypeOf(v); i < typ.NumField(); i++ {
			if name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); name != "" && name != "-" && !allowed[name] {
				names = append(names, regexp.QuoteMeta(name))
			}
		}
	}
	if len(names) < 30 {
		t.Fatalf("found %d member names, want those of four structs", len(names))
	}
	quoted := regexp.MustCompile("[\"`](" + strings.Join(names, "|") + ")[\"`:,]")
	for _, file := range []string{"wire.go", filepath.Join("..", "stats", "wire.go")} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(src), "\n") {
			if m := quoted.FindString(line); m != "" {
				t.Errorf("%s:%d spells the member %s: %s", file, n+1, m, strings.TrimSpace(line))
			}
		}
	}
}

// recordText is a done, cached record around result, as POST /v1/jobs sends it.
func recordText(result string) string {
	return `{"id":"job-000001","key":"k","job":{"hierarchy":"LN3-144KB","levels":3,"benchmark":"403.gcc","mode":{"name":"quick","warmup":4000,"measure":20000},"seed":1},"status":"done","progress":1,"cached":true,"result":` +
		result + `,"timeline":{"submitted_at":"2026-10-03T12:00:00Z","queue_seconds":0},"worker":"w1"}`
}

// wireShapes are the types a Client call or the coordinator decodes a body
// into, as FuzzRecordJSON's second argument picks them.
var wireShapes = []func() interface{}{
	func() interface{} { return new(JobRecord) },
	func() interface{} { return new(SweepStatus) },
	func() interface{} { return new(SweepSubmission) },
	func() interface{} { return new(JobResult) },
	func() interface{} { return new(Request) }, // carries no result: read from its plan
}

// FuzzRecordJSON: whatever the bytes and whichever the type, Unmarshal and
// json.Unmarshal agree on whether they decode, on the error's text, on the
// decoded value and on its encoding.
func FuzzRecordJSON(f *testing.F) {
	result := string(realResult(f))
	record := recordText(result)
	queued := `{"id":"job-000002","key":"k2","job":{"hierarchy":"L2-256KB","benchmark":"429.mcf","mode":{"name":"quick","warmup":4000,"measure":20000},"seed":1},"status":"queued","progress":0,"timeline":{"submitted_at":"2026-10-03T12:00:00Z","queue_seconds":0.5}}`
	// The result as this schema stores it, and as lnuca-job-v5 stored it,
	// with members no struct has any more, for encoding/json to skip.
	for _, res := range []string{result, string(legacyResult(f))} {
		rec := recordText(res)
		sweep := `{"id":"sweep-0001","total":3,"by_state":{"done":2,"queued":1},"done":false,"jobs":[` + rec + `,` + queued + `,` + rec + `],"cursor":7}`
		for shape, text := range []string{rec, sweep, sweep, res} {
			// Every truncation where the envelope and the results meet, and a
			// sample of them inside the statistics, which FuzzSetJSON
			// truncates at every byte.
			for n := 0; n <= len(text); n++ {
				near := n < 140 || n > len(text)-140
				for _, name := range []string{`"result"`, `"load_latency"`, `"stats"`, `"timeline"`} {
					at := strings.LastIndex(text[:min(n+len(name), len(text))], name)
					near = near || at >= 0 && n-at < 24
				}
				if near || n%97 == 0 {
					f.Add([]byte(text[:n]), uint8(shape))
				}
			}
			for _, around := range []string{" %s ", "\n\t%s\r\n", "%s\x00", "\x00%s", "\ufeff%s", "%s\ufeff", "%s%[1]s", "%s,", "[%s]", "%s}"} {
				f.Add([]byte(fmt.Sprintf(around, text)), uint8(shape))
			}
		}
	}
	small := `{"config":"c","cycles":1,"stats":{"counters":{"a":1}},"load_latency":{"buckets":[1],"count":1,"sum":0}}`
	deep := strings.Repeat("[", 10001) + strings.Repeat("]", 10001)
	for _, text := range []string{
		`{}`, `null`, `[]`, `0`, `""`, `{"result":null}`, `{"result":{}}`, `{"result":[]}`, `{"result":5}`, `{"jobs":null}`, `{"jobs":[]}`, `{"jobs":{}}`, `{"jobs":[null]}`, `{"jobs":[5]}`, `{"jobs":[{}]}`,
		`{"result":` + small + `}`, `{"jobs":[{"result":` + small + `},{"result":null},{},{"result":` + small + `}]}`, small,
		`{"result":` + small + `,"result":` + small + `}`, `{"Result":` + small + `}`, `{"RESULT":` + small + `,"result":{"cycles":2}}`, `{"result":` + small + `}`, `{"reſult":` + small + `}`,
		`{"jobs":[{"result":` + small + `}],"jobs":[{"id":"x"}]}`, `{"Jobs":[{"result":` + small + `}]}`, `{"jobs":[{"result":` + small + `}]}`, `{"jobs":[{"Result":` + small + `,"result":{"cycles":2}}]}`,
		`{"stats":{"counters":{"a":1}},"stats":{"counters":{"b":2}}}`, `{"Stats":{"counters":{"a":1}}}`, `{"stats":{"counters":{"a":1}},"STATS":{"counters":{"b":2}}}`, `{"stats":{"counters":{"a":1}}}`, `{"ſtats":{"counters":{"a":1}}}`,
		`{"load_latency":{"count":1},"load_latency":{"count":2}}`, `{"Load_Latency":{"count":1}}`, `{"load_latency":{"count":1}}`, `{"load_latency":{"buckets":[1,2]},"LOAD_LATENCY":{"count":3}}`,
		`{"stats":null}`, `{"stats":{}}`, `{"stats":{ }}`, `{"stats":[]}`, `{"stats":{"counters":{"a":-1}}}`, `{"stats":{"counters":{"ab":1}}}`, `{"stats":{"extra":1}}`, `{"stats":{"counters":{"a":1}}x}`, `{"load_latency":null}`, `{"load_latency":{}}`, `{"load_latency":{"min":-1}}`,
		`{"result":{"stats":{"counters":{"a":1}},"cycles":"x"}}`, `{"id":5,"result":` + small + `}`, `{"result":` + small + `,"timeline":{"submitted_at":"yesterday"}}`, `{"result":` + small + `,"job":{"x":"a\"}]b","y":[{"}":"{"}]},"error":"\\"}`,
		`{"result":` + small + `,}`, `{"result":` + small + `,"id":01}`, `{"result":` + small + `,"id":"a` + "\x01" + `"}`, `{"result":` + small + `,"id":[1}`, `{"result" ` + small + `}`, `{"result":` + small + ` "id":"x"}`,
		`{"config":"c","phases":{"build_seconds":1},"stats":{"counters":{"a":1}}}`, `{"per_core":[{"benchmark":"b","ipc":1,"committed":2}],"stats" : {"counters":{"a":1}} , "cores":1}`,
		`{"a":` + deep + `,"result":` + small + `}`, `{"result":{"x":` + deep + `}}`, deep,
	} {
		for shape := range wireShapes {
			f.Add([]byte(text), uint8(shape))
		}
	}
	// The values the plans read, and those next to them they leave to
	// encoding/json, one member of a record at a time.
	for _, sub := range [][2]string{
		{`"progress":1`, `"progress":1e400`}, {`"progress":1`, `"progress":-0`}, {`"progress":1`, `"progress":1e-7`},
		{`"cached":true`, `"cached":null`}, {`"levels":3`, `"levels":-1`},
		{`"12:00:00Z"`, `"12:00:00+05:30"`}, {`"12:00:00Z"`, `"12:00:00-23:59"`}, {`"12:00:00Z"`, `"12:00:00+24:00"`},
		{`"2026-10-03T12:00:00Z"`, `"yesterday"`}, {`"2026-10-03T12:00:00Z"`, `null`},
	} {
		f.Add([]byte(strings.Replace(record, sub[0], sub[1], 1)), uint8(0))
	}
	for _, member := range []string{
		`"energy_pj":[1,2,3]`, `"energy_pj":[1,2,3,4,5]`, `"energy_pj":null`, `"energy_pj":[1,2,3,4]`,
		`"per_core":null`, `"per_core":[]`, `"per_core":[{}]`,
	} {
		result := `{"config":"c","cycles":1,` + member + `}`
		f.Add([]byte(result), uint8(3))
		f.Add([]byte(recordText(result)), uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		got, want := wireShapes[int(shape)%len(wireShapes)](), wireShapes[int(shape)%len(wireShapes)]()
		err, werr := Unmarshal(bytes.Clone(data), got), json.Unmarshal(data, want)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%q into %T: Unmarshal error %v, json.Unmarshal's %v", data, got, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %+v, json.Unmarshal %+v", data, got, want)
		}
		enc, err := AppendJSON(nil, got)
		wenc, werr := json.Marshal(want)
		if (err == nil) != (werr == nil) || err == nil && !bytes.Equal(enc, wenc) {
			t.Fatalf("%q: re-encoded %s (%v), json.Marshal %s (%v)", data, enc, err, wenc, werr)
		}
	})
}

// TestRealRecordReadInOneWalk: a real record, a sweep of them and a bare
// result are read by the plan of their type, statistics and all, not handed
// to encoding/json, and decode to what json.Unmarshal decodes.
func TestRealRecordReadInOneWalk(t *testing.T) {
	result := string(realResult(t))
	record := recordText(result)
	jobs := `"jobs":[` + record + "," + record + "]"
	sweep := `{"id":"sweep-0001","total":2,"by_state":{"done":2},"done":true,` + jobs + `,"cursor":2}` + "\n"
	for _, c := range []struct {
		text      string
		got, want interface{}
	}{
		{record + "\n", new(JobRecord), new(JobRecord)},
		{sweep, new(SweepStatus), new(SweepStatus)},
		{`{"id":"sweep-0001",` + jobs + "}\n", new(SweepSubmission), new(SweepSubmission)},
		{result, new(JobResult), new(JobResult)},
		{string(warmRecord(t)), new(JobRecord), new(JobRecord)},
	} {
		v := reflect.ValueOf(c.got).Elem()
		if p := planOf(v.Type()); p == nil || !p.read([]byte(c.text), v) {
			t.Fatalf("%T: its plan does not read it", c.got)
		}
		if err := json.Unmarshal([]byte(c.text), c.want); err != nil || !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%T: decoded %+v, json.Unmarshal %+v (%v)", c.got, c.got, c.want, err)
		}
	}
}

// warmRecord is a cache hit's answer to POST /v1/jobs: a done, cached
// record around a real stored result.
func warmRecord(tb testing.TB) []byte {
	tb.Helper()
	res := new(JobResult)
	if err := json.Unmarshal(realResult(tb), res); err != nil {
		tb.Fatal(err)
	}
	job, err := Job{Kind: hier.LNUCAL3, Levels: 3, Benchmark: "403.gcc", Mode: exp.Quick, Seed: 1}.Normalize()
	if err != nil {
		tb.Fatal(err)
	}
	at := time.Date(2026, 10, 3, 12, 0, 0, 123456789, time.UTC)
	rec := JobRecord{
		ID: "job-000001", Key: job.Key(), Job: job, Status: StatusDone, Progress: 1, Cached: true, Result: res,
		Timeline: Timeline{SubmittedAt: at, FinishedAt: &at}, TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
	}
	data, err := AppendJSON(nil, &rec)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// warmRecordAllocs is what decoding warmRecord into a new record allocates:
// the record, the walk and the copy of the text it reads, the result and
// its finished time, the set and its map (four). encoding/json takes 27.
const warmRecordAllocs = 10

// TestWarmRecordTakesPlan: decoding a cache hit's record allocates what the
// walk does and no more, so a record that falls back to encoding/json fails
// here and not only on the clock.
func TestWarmRecordTakesPlan(t *testing.T) {
	data := warmRecord(t)
	n := testing.AllocsPerRun(200, func() {
		var rec JobRecord
		if err := Unmarshal(data, &rec); err != nil || rec.Result == nil || rec.Result.Stats == nil {
			t.Fatalf("decoding a warm record: %v", err)
		}
	})
	if n > warmRecordAllocs+2 {
		t.Errorf("decoding a warm record: %.0f allocations, want <= %d", n, warmRecordAllocs+2)
	}
}

// BenchmarkUnmarshalWarmRecord is the client's half of a cache hit: a
// warm record's bytes, read into a buffer as the client reads a body, to a
// JobRecord.
func BenchmarkUnmarshalWarmRecord(b *testing.B) {
	data := warmRecord(b)
	body := make([]byte, len(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var rec JobRecord
		if err := Unmarshal(body[:copy(body, data)], &rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendJSONWarmRecord is the server's half: the record of a
// cache hit, its result a store file's bytes, to the body it sends.
func BenchmarkAppendJSONWarmRecord(b *testing.B) {
	var rec JobRecord
	if err := json.Unmarshal(warmRecord(b), &rec); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	NewCache(0, dir).Put(rec.Key, rec.Result)
	if rec.Result, _ = NewCache(0, dir).Get(rec.Key); rec.Result == nil || rec.Result.stored == nil {
		b.Fatal("the result carries no stored bytes")
	}
	b.SetBytes(int64(len(warmRecord(b))))
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendJSON(buf[:0], &rec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteJSONEncodesBeforeStatus: a result that cannot be encoded (a NaN
// IPC, which a memory-only cache holds without having tried) is a 500
// with the error envelope on every route that carries it, not a 200 or 202
// with an empty body.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	good, bad := quickJob("429.mcf"), quickJob("403.gcc")
	for _, j := range []*Job{&good, &bad} {
		n, err := j.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		*j = n
	}
	cache := NewCache(0, "")
	cache.Put(good.Key(), stubResult(good))
	res := stubResult(bad)
	res.IPC = math.NaN()
	cache.Put(bad.Key(), res)
	orch := New(Config{Workers: 1, Cache: cache})
	defer orch.Close()
	api := NewServer(orch)
	sid, recs, err := orch.SubmitSweep([]Job{good, bad})
	if err != nil || !recs[1].Cached {
		t.Fatalf("sweep: %v, records %+v", err, recs)
	}
	serve(t, api, http.MethodPost, "/v1/jobs", RequestOf(good), http.StatusOK, nil)
	for _, c := range []struct {
		method, target string
		body           interface{}
	}{
		{http.MethodPost, "/v1/jobs", RequestOf(bad)},
		{http.MethodGet, "/v1/jobs/" + recs[1].ID, nil},
		{http.MethodGet, "/v1/results?hierarchy=conventional&benchmark=403.gcc", nil},
		{http.MethodGet, "/v1/sweeps/" + sid, nil},
		{http.MethodGet, "/v1/jobs", nil},
		{http.MethodPost, "/v1/sweeps", SweepRequest{Hierarchies: []string{"conventional"}, Benchmarks: []string{"429.mcf", "403.gcc"}}},
	} {
		var envelope struct{ Error string }
		body := serve(t, api, c.method, c.target, c.body, http.StatusInternalServerError, &envelope)
		if !strings.Contains(envelope.Error, "NaN") || !bytes.HasSuffix(body, []byte("}\n")) {
			t.Errorf("%s %s: body %q, want the error envelope naming the NaN", c.method, c.target, body)
		}
	}
}

// TestCacheLoadNormalisesStoredBytes: a store file some other hand wrote —
// indented, a trailing newline, raw <, a member no struct has — was served
// compact and HTML-escaped when encoding/json walked the stored bytes on
// every hit, and still is now that they are spliced in as they are: load
// makes them so, once, by the toolchain's own rule.
func TestCacheLoadNormalisesStoredBytes(t *testing.T) {
	job, err := quickJob("403.gcc").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := json.Indent(&file, realResult(t), "", "\t"); err != nil {
		t.Fatal(err)
	}
	file.Truncate(file.Len() - len("\n}"))
	file.WriteString(",\n\t\"note\": \"<b>R&D</b>  \",\n\t\"extra\": [ 1, 2 ]\n}\n\n")
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, job.Key()+".json"), file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(json.RawMessage(file.Bytes()))
	if err != nil || bytes.Equal(want, bytes.TrimSpace(file.Bytes())) || bytes.Contains(want, []byte(`<b>R&D`)) {
		t.Fatalf("the file is already what encoding/json makes of it (%v): the test tests nothing", err)
	}
	orch := New(Config{Workers: 1, Cache: NewCache(0, dir)})
	defer orch.Close()
	api := NewServer(orch)
	var rec struct {
		ID     string
		Cached bool
		Result json.RawMessage
	}
	serve(t, api, http.MethodPost, "/v1/jobs", RequestOf(job), http.StatusOK, &rec)
	if !rec.Cached || !bytes.Equal(rec.Result, want) {
		t.Errorf("POST /v1/jobs: cached=%v, result\n got %s\nwant %s", rec.Cached, rec.Result, want)
	}
	id := rec.ID
	serve(t, api, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &rec)
	if !bytes.Equal(rec.Result, want) {
		t.Errorf("GET /v1/jobs/%s: result\n got %s\nwant %s", id, rec.Result, want)
	}
	if body := serve(t, api, http.MethodGet, "/v1/results?hierarchy=conventional&benchmark=403.gcc", nil, http.StatusOK, nil); !bytes.Equal(body, append(want[:len(want):len(want)], '\n')) {
		t.Errorf("GET /v1/results: body\n got %s\nwant %s", body, want)
	}
	sid, _, err := orch.SubmitSweep([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	var sweep struct {
		Jobs []struct{ Result json.RawMessage }
	}
	serve(t, api, http.MethodGet, "/v1/sweeps/"+sid, nil, http.StatusOK, &sweep)
	if len(sweep.Jobs) != 1 || !bytes.Equal(sweep.Jobs[0].Result, want) {
		t.Errorf("GET /v1/sweeps/%s: %d jobs, result\n got %s\nwant %s", sid, len(sweep.Jobs), sweep.Jobs, want)
	}
}
