package lightnuca_test

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	lightnuca "repro"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/orchestrator"
	"repro/internal/trace"
)

// instrument is one line of testdata/instruments.txt, or one metric
// family or span name a run exported.
type instrument struct {
	kind     string // counter, gauge, histogram or span
	labels   string // label names in schema order, or sorted attribute keys; comma-joined
	question string
}

// The naming rules every instrument follows.
var (
	metricNameRe = regexp.MustCompile(`^lnuca(_[a-z0-9]+)+$`)
	spanNameRe   = regexp.MustCompile(`^lnuca(\.[a-z0-9_]+)+$`)
	labelNameRe  = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	// histogramUnits are the suffixes a histogram name may end in.
	histogramUnits = []string{"_seconds", "_bytes", "_cycles", "_ops", "_total", "_mips", "_ratio"}
	// unboundedLabels carry unbounded value sets in practice: each value
	// is a new series (or, on a span, defeats the recorder's grouping).
	// Route-like values pass through a normalizer such as
	// orchestrator.RouteLabel under a bounded name.
	unboundedLabels = []string{"id", "job_id", "key", "request_id", "path", "url", "query",
		"remote_addr", "addr", "user_agent", "trace", "trace_id"}
)

// maxLabels bounds a family's label schema: k labels of v values each
// is v^k series.
const maxLabels = 4

// TestInstrumentCatalog builds the whole service stack — orchestrator,
// fleet coordinator, two pull workers, the HTTP middleware, the flight
// recorder's and the fault injector's instruments as lnucad registers
// them, and a tracing client — and runs a small sweep through it with a
// coalesced submit, a resubmission the cache answers and a trace job a
// worker has to fetch. Every metric family it scraped and every span it
// recorded must be listed in testdata/instruments.txt with the same kind
// and labels (attribute keys for spans), every listed one must have been
// seen, and all of them must follow the naming rules. A name built at
// run time therefore fails as an unlisted instrument.
func TestInstrumentCatalog(t *testing.T) {
	listed := readCatalog(t, "testdata/instruments.txt")
	var spanNames []string
	for name, in := range listed {
		if in.kind == "span" {
			spanNames = append(spanNames, name)
		}
	}
	seen, recordedNames := runCatalogStack(t, spanNames)

	for _, name := range sortedKeys(seen) {
		s := seen[name]
		l, ok := listed[name]
		switch {
		case !ok:
			t.Errorf("%s %s (labels %q) is not listed in testdata/instruments.txt", s.kind, name, s.labels)
		case l.kind != s.kind || l.labels != s.labels:
			t.Errorf("%s: listed as %s with labels %q, the run exported a %s with labels %q",
				name, l.kind, l.labels, s.kind, s.labels)
		}
	}
	for _, name := range sortedKeys(listed) {
		if _, ok := seen[name]; !ok {
			t.Errorf("%s %s is listed but the run never exported it", listed[name].kind, name)
		}
		if listed[name].question == "" {
			t.Errorf("%s is listed without the question it answers", name)
		}
	}
	for _, name := range sortedKeys(seen) {
		for _, err := range namingErrors(name, seen[name]) {
			t.Error(err)
		}
	}
	// That label is bounded only because span names are.
	for _, name := range recordedNames {
		if l, ok := listed[name]; !ok || l.kind != "span" {
			t.Errorf("lnuca_spans_recorded_total counted spans named %q, which is not a listed span", name)
		}
	}
}

// namingErrors checks one instrument against the naming rules.
func namingErrors(name string, in instrument) []string {
	var errs []string
	bad := func(format string, args ...interface{}) {
		errs = append(errs, name+": "+fmt.Sprintf(format, args...))
	}
	var labels []string
	if in.labels != "" {
		labels = strings.Split(in.labels, ",")
	}
	word := "label"
	if in.kind == "span" {
		word = "attribute key"
		if !spanNameRe.MatchString(name) {
			bad("span name must be lnuca.-prefixed dotted lowercase (%s)", spanNameRe)
		}
	} else {
		if !metricNameRe.MatchString(name) {
			bad("metric name must be lnuca_-prefixed snake_case (%s)", metricNameRe)
		}
		if in.kind == "counter" && !strings.HasSuffix(name, "_total") {
			bad("counter must end in _total")
		}
		if in.kind == "histogram" && !slices.ContainsFunc(histogramUnits, func(u string) bool { return strings.HasSuffix(name, u) }) {
			bad("histogram must end in a unit suffix (%s)", strings.Join(histogramUnits, ", "))
		}
		if len(labels) > maxLabels {
			bad("%d labels; more than %d multiplies series beyond what a scrape can hold", len(labels), maxLabels)
		}
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l) {
			bad("%s %q must be lower snake_case", word, l)
		}
		if slices.Contains(unboundedLabels, l) {
			bad("%s %q has unbounded cardinality; normalize the value (as orchestrator.RouteLabel does) and rename it", word, l)
		}
	}
	return errs
}

// readCatalog parses testdata/instruments.txt.
func readCatalog(t *testing.T, path string) map[string]instrument {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]instrument)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		if len(fields) != 4 {
			t.Fatalf("%s:%d: want kind | name | labels | question, got %q", path, n, line)
		}
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		name, labels := fields[1], fields[2]
		if labels == "-" {
			labels = ""
		}
		if _, dup := out[name]; dup {
			t.Fatalf("%s:%d: %s listed twice", path, n, name)
		}
		out[name] = instrument{kind: fields[0], labels: labels, question: fields[3]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// spanLog keeps the attribute keys of every span it records, by name.
type spanLog struct {
	mu    sync.Mutex
	attrs map[string]map[string]bool
}

func (l *spanLog) Record(s tracez.Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := l.attrs[s.Name]
	if keys == nil {
		keys = make(map[string]bool)
		l.attrs[s.Name] = keys
	}
	for _, a := range s.Attrs {
		keys[a.Key] = true
	}
}

// missing returns the names in want it has not recorded yet.
func (l *spanLog) missing(want []string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, name := range want {
		if l.attrs[name] == nil {
			out = append(out, name)
		}
	}
	return out
}

// runCatalogStack wires the stack lnucad -fleet wires (with -chaos-seed
// armed, so the fault counter exists), drives it until every span name in
// want was recorded, and returns every metric family and span it
// exported, plus the name values of lnuca_spans_recorded_total.
func runCatalogStack(t *testing.T, want []string) (map[string]instrument, []string) {
	reg := obs.NewRegistry()
	flight := tracez.NewFlightRecorder(0, 0, 0)
	spans := &spanLog{attrs: make(map[string]map[string]bool)}
	tracer := tracez.New(flight.Metered(reg, tracez.Tee(flight, spans)))
	faults := faultinject.New(1)
	faults.Enable(faultinject.PointCoordHTTP, faultinject.Plan{Rate: 1, MaxFires: 1})
	faults.Count(reg)

	traces := trace.NewStore("")
	coord := fleet.NewCoordinator(fleet.Config{Traces: traces, Registry: reg, Events: flight, Spans: tracer.Recorder()})
	orch := orchestrator.New(orchestrator.Config{
		Workers:  2,
		Traces:   traces,
		Registry: reg,
		Tracer:   tracer,
		Flight:   flight,
		Run:      coord.Dispatch,
	})
	mux := http.NewServeMux()
	mux.Handle("/fleet/v1/", coord.Handler())
	mux.Handle("/", orchestrator.NewServer(orch))
	handler := faultinject.Middleware(mux, faults, faultinject.PointCoordHTTP)
	ts := httptest.NewServer(obs.Middleware(handler, nil, reg, orchestrator.RouteLabel))
	workerCtx, stopWorkers := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	defer func() {
		orch.Close()
		stopWorkers()
		workers.Wait()
		ts.Close()
		coord.Close()
	}()

	// The injector's one fire answers the first request.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first request: status %d, want the injected 503", resp.StatusCode)
	}

	ctx := context.Background()
	client := lightnuca.NewClient(ts.URL).EnableTracing()
	client.PollInterval = 5 * time.Millisecond
	_, tr, err := lightnuca.Record(ctx, lightnuca.Request{
		Hierarchy: "ln+l3", Levels: 3, Benchmark: "400.perlbench", Warmup: 500, Measure: 3000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadTrace(ctx, data); err != nil {
		t.Fatal(err)
	}

	// No worker polls yet, so the second submit finds the first in flight.
	req := lightnuca.Request{Hierarchy: "ln+l3", Levels: 3, Benchmark: "403.gcc", Warmup: 500, Measure: 3000, Seed: 1}
	first, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := client.Submit(ctx, req); err != nil || !again.Coalesced {
		t.Fatalf("second submit: coalesced=%v, err %v; want it merged onto %s", again.Coalesced, err, first.ID)
	}
	for i := 0; i < 2; i++ {
		w := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator:  ts.URL,
			Name:         fmt.Sprintf("w%d", i),
			PollInterval: 5 * time.Millisecond,
		})
		workers.Add(1)
		go func() {
			defer workers.Done()
			_ = w.Run(workerCtx)
		}()
	}

	sweep, err := client.RunSweep(ctx, lightnuca.Sweep{
		Hierarchies: []string{"conventional", "ln+l3"},
		Benchmarks:  []string{"429.mcf"},
		Warmup:      500,
		Measure:     3000,
		Seed:        1,
	}, nil)
	if n := sweep.ByState[lightnuca.StatusDone]; err != nil || n != sweep.Total {
		t.Fatalf("sweep: %d of %d cells done, err %v", n, sweep.Total, err)
	}
	if _, err := client.Run(ctx, lightnuca.Request{Hierarchy: "conventional", Trace: tr.ID()}); err != nil {
		t.Fatalf("trace job: %v", err)
	}
	if _, err := client.Wait(ctx, first.ID, nil); err != nil {
		t.Fatal(err)
	}
	if rec, err := client.Submit(ctx, req); err != nil || !rec.Cached {
		t.Fatalf("resubmission: cached=%v, err %v; want a cache hit", rec.Cached, err)
	}

	// Orchestrator spans finish on its goroutines, after the records. A
	// name still missing at the deadline is reported by the comparison.
	for deadline := time.Now().Add(10 * time.Second); len(spans.missing(want)) > 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}

	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	seen, recorded := parseScrape(t, scrape.String())
	spans.mu.Lock()
	for name, keys := range spans.attrs {
		seen[name] = instrument{kind: "span", labels: strings.Join(sortedKeys(keys), ",")}
	}
	spans.mu.Unlock()
	return seen, recorded
}

// parseScrape reads the families of a Prometheus text exposition: each
// one's TYPE and the label names of its series in schema order (le,
// which every histogram bucket carries, aside). It also returns the name values of
// lnuca_spans_recorded_total.
func parseScrape(t *testing.T, text string) (map[string]instrument, []string) {
	t.Helper()
	kinds := make(map[string]string)
	labels := make(map[string][]string)
	var recorded []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			kinds[name] = kind
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(line, '{'); i >= 0 {
			series = line[:i]
		}
		family := series
		if _, ok := kinds[family]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(series, suffix); ok && kinds[base] == "histogram" {
					family = base
				}
			}
		}
		if _, ok := kinds[family]; !ok {
			t.Fatalf("series %q has no TYPE line", line)
		}
		for _, p := range seriesLabels(t, line) {
			if p[0] == "le" && kinds[family] == "histogram" {
				continue
			}
			if !slices.Contains(labels[family], p[0]) {
				labels[family] = append(labels[family], p[0])
			}
			if family == "lnuca_spans_recorded_total" && p[0] == "name" {
				recorded = append(recorded, p[1])
			}
		}
	}
	out := make(map[string]instrument, len(kinds))
	for name, kind := range kinds {
		out[name] = instrument{kind: kind, labels: strings.Join(labels[name], ",")}
	}
	return out, recorded
}

// seriesLabels returns the name/value pairs of one sample line's label
// set, unescaping values.
func seriesLabels(t *testing.T, line string) [][2]string {
	i := strings.IndexByte(line, '{')
	if i < 0 {
		return nil
	}
	var out [][2]string
	s := line[i+1:]
	for !strings.HasPrefix(s, "}") {
		name, rest, ok := strings.Cut(s, `="`)
		if !ok {
			t.Fatalf("malformed label set in %q", line)
		}
		var v strings.Builder
		j := 0
		for ; j < len(rest) && rest[j] != '"'; j++ {
			if rest[j] == '\\' && j+1 < len(rest) {
				j++
				if rest[j] == 'n' {
					v.WriteByte('\n')
					continue
				}
			}
			v.WriteByte(rest[j])
		}
		if j == len(rest) {
			t.Fatalf("unterminated label value in %q", line)
		}
		out = append(out, [2]string{name, v.String()})
		s = strings.TrimPrefix(rest[j+1:], ",")
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
