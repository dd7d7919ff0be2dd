package obs

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// --- scrape-format parser -------------------------------------------------
//
// parseScrape validates Prometheus text exposition line-by-line: every
// family has exactly one HELP and one TYPE line (duplicates rejected),
// sample names are well-formed and belong to the most recent TYPE'd
// family, label syntax is checked with unescaped quotes rejected, and
// values parse as Go floats. It returns sample name+labels -> value.

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"$`)
)

// parseSampleLine splits `name{labels} value` respecting quoting: a
// label value may legally contain '{', '}' or ','. Returns ok=false on
// any malformation.
func parseSampleLine(line string) (name, labels, value string, ok bool) {
	i := 0
	for i < len(line) {
		c := line[i]
		if c == '_' || c == ':' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || (i > 0 && '0' <= c && c <= '9') {
			i++
			continue
		}
		break
	}
	if i == 0 {
		return "", "", "", false
	}
	name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		inQuotes, escaped := false, false
		j := 1
		for ; j < len(rest); j++ {
			switch {
			case escaped:
				escaped = false
			case rest[j] == '\\':
				escaped = true
			case rest[j] == '"':
				inQuotes = !inQuotes
			case rest[j] == '}' && !inQuotes:
				goto closed
			}
		}
		return "", "", "", false // unterminated label block
	closed:
		labels = rest[1:j]
		rest = rest[j+1:]
	}
	if !strings.HasPrefix(rest, " ") {
		return "", "", "", false
	}
	value = rest[1:]
	if value == "" || strings.ContainsAny(value, " \t") {
		return "", "", "", false
	}
	return name, labels, value, true
}

func parseScrape(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string) // family -> kind
	helped := make(map[string]bool)
	family, kind := "", ""
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !nameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %q", ln+1, name)
			}
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !nameRe.MatchString(fields[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := typed[fields[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, fields[0])
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, fields[1])
			}
			typed[fields[0]] = fields[1]
			family, kind = fields[0], fields[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		default:
			name, labels, value, ok := parseSampleLine(line)
			if !ok {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			base := name
			if kind == "histogram" {
				base = strings.TrimSuffix(base, "_bucket")
				base = strings.TrimSuffix(base, "_sum")
				base = strings.TrimSuffix(base, "_count")
			}
			if base != family {
				t.Fatalf("line %d: sample %q outside its TYPE'd family %q", ln+1, name, family)
			}
			if labels != "" {
				for _, pair := range splitLabelPairs(t, ln+1, labels) {
					if !labelRe.MatchString(pair) {
						t.Fatalf("line %d: malformed label pair %q", ln+1, pair)
					}
				}
			}
			v, err := strconv.ParseFloat(strings.TrimPrefix(value, "+"), 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, value, err)
			}
			key := name
			if labels != "" {
				key += "{" + labels + "}"
			}
			if _, dup := samples[key]; dup {
				t.Fatalf("line %d: duplicate sample %q", ln+1, key)
			}
			samples[key] = v
		}
	}
	for fam := range typed {
		if !helped[fam] {
			t.Fatalf("family %q has TYPE but no HELP", fam)
		}
	}
	return samples
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quotes.
func splitLabelPairs(t *testing.T, ln int, s string) []string {
	t.Helper()
	var out []string
	var b strings.Builder
	inQuotes, escaped := false, false
	for _, c := range s {
		switch {
		case escaped:
			escaped = false
			b.WriteRune(c)
		case c == '\\':
			escaped = true
			b.WriteRune(c)
		case c == '"':
			inQuotes = !inQuotes
			b.WriteRune(c)
		case c == ',' && !inQuotes:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteRune(c)
		}
	}
	if inQuotes || escaped {
		t.Fatalf("line %d: unterminated label quoting in %q", ln, s)
	}
	out = append(out, b.String())
	return out
}

func scrape(t *testing.T, r *Registry) (string, map[string]float64) {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String(), parseScrape(t, sb.String())
}

// --- tests ----------------------------------------------------------------

func TestScrapeFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs.").Add(7)
	r.Gauge("queue_depth", "Depth.").Set(3.5)
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)
	v := r.CounterVec("http_requests_total", "Requests.", "method", "code")
	v.With("GET", "200").Add(2)
	v.With("POST", "500").Inc()

	text, samples := scrape(t, r)
	want := map[string]float64{
		`jobs_total`:                                    7,
		`queue_depth`:                                   3.5,
		`latency_seconds_bucket{le="0.1"}`:              1,
		`latency_seconds_bucket{le="1"}`:                2,
		`latency_seconds_bucket{le="10"}`:               2,
		`latency_seconds_bucket{le="+Inf"}`:             3,
		`latency_seconds_count`:                         3,
		`http_requests_total{method="GET",code="200"}`:  2,
		`http_requests_total{method="POST",code="500"}`: 1,
	}
	for k, v := range want {
		if got, ok := samples[k]; !ok || got != v {
			t.Errorf("sample %s = %v (present %v), want %v\nscrape:\n%s", k, got, ok, v, text)
		}
	}
	if sum := samples[`latency_seconds_sum`]; math.Abs(sum-100.55) > 1e-9 {
		t.Errorf("latency_seconds_sum = %v, want 100.55", sum)
	}
	// Families must come out sorted by name.
	iReq := strings.Index(text, "# TYPE http_requests_total")
	iJobs := strings.Index(text, "# TYPE jobs_total")
	iLat := strings.Index(text, "# TYPE latency_seconds")
	iQ := strings.Index(text, "# TYPE queue_depth")
	if !(iReq < iJobs && iJobs < iLat && iLat < iQ) {
		t.Errorf("families not sorted by name:\n%s", text)
	}
}

func TestScrapeEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("weird_total", "Help with \\ backslash\nand newline.", "path").
		With(`a"b\c` + "\nd").Inc()
	text, samples := scrape(t, r)
	if !strings.Contains(text, `# HELP weird_total Help with \\ backslash\nand newline.`) {
		t.Errorf("HELP not escaped:\n%s", text)
	}
	wantKey := `weird_total{path="a\"b\\c\nd"}`
	if samples[wantKey] != 1 {
		t.Errorf("escaped label sample missing; got %v\nscrape:\n%s", samples, text)
	}
}

// TestParserRejectsBadScrapes proves the format checker itself has
// teeth: hand-built outputs with duplicate families or unescaped label
// values must fail.
func TestParserRejectsBadScrapes(t *testing.T) {
	bad := []string{
		"# HELP a A.\n# TYPE a counter\na 1\n# HELP a A.\n# TYPE a counter\na 2\n",
		"# HELP a A.\n# TYPE a counter\na{l=\"x\"y\"} 1\n",
		"# HELP a A.\n# TYPE a counter\na 1\na 2\n",
		"# HELP 0bad B.\n# TYPE 0bad counter\n0bad 1\n",
	}
	for i, text := range bad {
		tt := &testing.T{}
		done := make(chan struct{})
		go func() { // Fatalf on tt runtime.Goexits, so give it its own goroutine
			defer close(done)
			parseScrape(tt, text)
		}()
		<-done
		if !tt.Failed() {
			t.Errorf("case %d: parser accepted malformed scrape:\n%s", i, text)
		}
	}
}

func TestConcurrentUpdatesAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "Ops.")
	g := r.Gauge("inflight", "In flight.")
	h := r.Histogram("dur_seconds", "Durations.", []float64{1, 2, 4, 8})
	v := r.CounterVec("by_kind_total", "By kind.", "kind")

	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() { // concurrent scraper: output must stay parseable mid-update
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, samples := scrape(t, r)
			// The le="+Inf" bucket must equal _count at every instant.
			if inf, cnt := samples[`dur_seconds_bucket{le="+Inf"}`], samples[`dur_seconds_count`]; inf != cnt {
				t.Errorf("+Inf bucket %v != count %v mid-scrape", inf, cnt)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := fmt.Sprintf("k%d", w%3)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i % 10))
				v.With(kind).Inc()
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { // races get-or-create against updates
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("ops_total", "Ops.").Add(0)
				v.With("k0").Add(0)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	_, samples := scrape(t, r)
	var byKind float64
	for k, v := range samples {
		if strings.HasPrefix(k, "by_kind_total{") {
			byKind += v
		}
	}
	if byKind != workers*perWorker {
		t.Errorf("sum over by_kind_total children = %v, want %d", byKind, workers*perWorker)
	}
}

func TestGetOrCreateAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same", "Same.")
	b := r.Counter("same", "Same.")
	if a != b {
		t.Error("re-registering the same counter returned a different instrument")
	}
	mustPanic(t, "kind conflict", func() { r.Gauge("same", "Now a gauge.") })
	r.CounterVec("vec", "Vec.", "a", "b")
	mustPanic(t, "label conflict", func() { r.CounterVec("vec", "Vec.", "a") })
	r.Histogram("hist", "Hist.", []float64{1, 2})
	mustPanic(t, "bucket conflict", func() { r.Histogram("hist", "Hist.", []float64{1, 3}) })
	mustPanic(t, "bad name", func() { r.Counter("0bad", "Bad.") })
	mustPanic(t, "bad label", func() { r.CounterVec("ok_total", "OK.", "0bad") })
	mustPanic(t, "reserved label", func() { r.CounterVec("ok2_total", "OK.", "__name") })
	mustPanic(t, "unsorted buckets", func() { r.Histogram("h2", "H.", []float64{2, 1}) })
	mustPanic(t, "+Inf bucket", func() { r.Histogram("h3", "H.", []float64{1, math.Inf(1)}) })
	mustPanic(t, "label arity", func() { r.CounterVec("vec2", "V.", "a", "b").With("only-one") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestFuncInstrumentsAndOnScrape(t *testing.T) {
	r := NewRegistry()
	var refreshed int
	var snap uint64
	r.OnScrape(func() { refreshed++; snap = 42 })
	r.CounterFunc("derived_total", "Derived.", func() uint64 { return snap })
	r.GaugeFunc("derived_gauge", "Derived gauge.", func() float64 { return float64(snap) / 2 })
	_, samples := scrape(t, r)
	if refreshed != 1 {
		t.Errorf("OnScrape hook ran %d times, want 1", refreshed)
	}
	if samples["derived_total"] != 42 || samples["derived_gauge"] != 21 {
		t.Errorf("func instruments = %v, want derived_total=42 derived_gauge=21", samples)
	}
}

func TestEmptyVecRendersNothing(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("unused_total", "Never incremented.", "kind")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("vec with no children rendered output:\n%s", sb.String())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	mustPanic(t, "bad ExpBuckets", func() { ExpBuckets(0, 2, 3) })
}

// TestNilInstrumentsAreNoOps: a component built without a Registry holds
// nil instruments and calls them unguarded; every update method, and With
// on the Vec families, must then do nothing.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		cv *CounterVec
		hv *HistogramVec
	)
	for name, call := range map[string]func(){
		"Counter.Inc":               func() { c.Inc() },
		"Counter.Add":               func() { c.Add(3) },
		"Gauge.Set":                 func() { g.Set(1) },
		"Gauge.Add":                 func() { g.Add(-1) },
		"Histogram.Observe":         func() { h.Observe(0.5) },
		"CounterVec.With.Inc":       func() { cv.With("GET", "/x", "200").Inc() },
		"HistogramVec.With.Observe": func() { hv.With("GET", "/x").Observe(0.5) },
		"Middleware without registry": func() {
			Middleware(http.NotFoundHandler(), nil, nil, nil).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
		},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s on nil panicked: %v", name, r)
				}
			}()
			call()
		}()
	}
}
