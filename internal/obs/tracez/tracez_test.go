package tracez

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	tr := NewSeeded(nil, 1)
	s, ctx := tr.Start(context.Background(), "lnuca.test.root")
	h := Inject(ctx)
	if h == "" {
		t.Fatal("no header for live span context")
	}
	sc, ok := ParseHeader(h)
	if !ok {
		t.Fatalf("ParseHeader(%q) failed", h)
	}
	if sc.TraceID != s.TraceID || sc.SpanID != s.SpanID {
		t.Fatalf("round trip mismatch: %+v vs span %s/%s", sc, s.TraceID, s.SpanID)
	}
	if !sc.HasParent() {
		t.Fatal("live span context should carry a parent span id")
	}
}

func TestHeaderZeroSpanIDMeansNoParent(t *testing.T) {
	sc := SpanContext{TraceID: strings.Repeat("ab", 16)}
	h := sc.Header()
	if h == "" {
		t.Fatal("trace-only context must still render a header")
	}
	got, ok := ParseHeader(h)
	if !ok {
		t.Fatalf("ParseHeader(%q) failed", h)
	}
	if !got.Valid() || got.HasParent() {
		t.Fatalf("zero span id must mean valid-but-parentless, got %+v", got)
	}
	// A span started under a parentless context adopts the trace ID but
	// records no parent — this is how orphans are avoided by design.
	tr := NewSeeded(nil, 2)
	s, _ := tr.Start(WithSpanContext(context.Background(), got), "lnuca.test.child")
	if s.TraceID != sc.TraceID {
		t.Fatalf("trace id not adopted: %s", s.TraceID)
	}
	if s.Parent != "" {
		t.Fatalf("parent must be empty, got %q", s.Parent)
	}
}

func TestParseHeaderRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"00-zz-00-01",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // zero trace id
		"00-" + strings.Repeat("a", 31) + "-" + strings.Repeat("a", 16) + "-01",
		"00_" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-01",
		"00-" + strings.Repeat("A", 32) + "-" + strings.Repeat("a", 16) + "-01", // uppercase
	}
	for _, s := range bad {
		if _, ok := ParseHeader(s); ok {
			t.Errorf("ParseHeader(%q) accepted garbage", s)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s, ctx := tr.Start(context.Background(), "lnuca.test.noop")
	if s != nil {
		t.Fatal("nil tracer must return nil span")
	}
	s.SetAttr("status", "ok")
	s.SetError(errors.New("boom"))
	s.Finish()
	if Inject(ctx) != "" {
		t.Fatal("nil tracer must not inject a context")
	}
	s2, _ := StartSpan(ctx, "lnuca.test.noop")
	if s2 != nil {
		t.Fatal("StartSpan without ambient tracer must be a no-op")
	}
	var fr *FlightRecorder
	fr.Record(Span{})
	fr.Event("fault", "", "")
	if fr.Spans("x") != nil || fr.Events("") != nil {
		t.Fatal("nil flight recorder must answer empty")
	}
}

func TestParentage(t *testing.T) {
	var col Collector
	tr := NewSeeded(&col, 3)
	root, ctx := tr.Start(context.Background(), "lnuca.test.root")
	child, cctx := StartSpan(ctx, "lnuca.test.child")
	grand, _ := StartSpan(cctx, "lnuca.test.grandchild")
	grand.Finish()
	child.Finish()
	root.SetError(errors.New("boom"))
	root.Finish()
	spans := col.Drain()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.TraceID != root.TraceID {
			t.Errorf("span %s escaped the trace: %s", s.Name, s.TraceID)
		}
		if err := ValidSpan(s); err != nil {
			t.Errorf("ValidSpan(%s): %v", s.Name, err)
		}
	}
	if byName["lnuca.test.child"].Parent != root.SpanID {
		t.Error("child not parented under root")
	}
	if byName["lnuca.test.grandchild"].Parent != byName["lnuca.test.child"].SpanID {
		t.Error("grandchild not parented under child")
	}
	if byName["lnuca.test.root"].Status != "error" || byName["lnuca.test.root"].Note != "boom" {
		t.Errorf("root status not recorded: %+v", byName["lnuca.test.root"])
	}
	if col.Drain() != nil {
		t.Error("Drain must clear the collector")
	}
}

// TestContextCarriesTracerAndParent: a context's tracer and span context
// travel together whichever was attached first, and a propagated parent
// is adopted as a tracer-made one is.
func TestContextCarriesTracerAndParent(t *testing.T) {
	tr := NewSeeded(nil, 4)
	header := "00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("cd", 8) + "-01"
	for name, ctx := range map[string]context.Context{
		"tracer first":  Extract(WithTracer(context.Background(), tr), header),
		"tracer second": WithTracer(Extract(context.Background(), header), tr),
	} {
		s, ctx := StartSpan(ctx, "lnuca.test.child")
		if s == nil || s.TraceID != strings.Repeat("ab", 16) || s.Parent != strings.Repeat("cd", 8) {
			t.Fatalf("%s: span %+v, want trace ab… under parent cd…", name, s)
		}
		if TracerFrom(ctx) != tr || FromContext(ctx) != s.Context() || TraceIDFrom(ctx) != s.TraceID {
			t.Fatalf("%s: the span's context does not carry it and its tracer", name)
		}
	}
}

// TestSeededIDs: IDs are lowercase hex of their width, never zero, and
// repeat for a seed.
func TestSeededIDs(t *testing.T) {
	a, b := NewSeeded(nil, 5), NewSeeded(nil, 5)
	for i := 0; i < 100; i++ {
		sa, _ := a.Start(context.Background(), "lnuca.test.root")
		sb, _ := b.Start(context.Background(), "lnuca.test.root")
		if err := ValidSpan(*sa); err != nil || sa.TraceID != sb.TraceID || sa.SpanID != sb.SpanID {
			t.Fatalf("span %d: %s/%s and %s/%s (%v)", i, sa.TraceID, sa.SpanID, sb.TraceID, sb.SpanID, err)
		}
	}
}

func TestDoubleFinishRecordsOnce(t *testing.T) {
	var col Collector
	tr := NewSeeded(&col, 4)
	s, _ := tr.Start(context.Background(), "lnuca.test.once")
	s.Finish()
	s.Finish()
	if n := len(col.Drain()); n != 1 {
		t.Fatalf("double Finish recorded %d spans", n)
	}
}

func TestFlightRecorderBounds(t *testing.T) {
	fr := NewFlightRecorder(2, 3, 4)
	tr := NewSeeded(fr, 5)
	mk := func(n int) string {
		s, ctx := tr.Start(context.Background(), "lnuca.test.root")
		for i := 0; i < n-1; i++ {
			c, _ := StartSpan(ctx, "lnuca.test.child")
			c.Finish()
		}
		s.Finish()
		return s.TraceID
	}
	t1 := mk(5) // 5 spans: 2 dropped past the per-trace cap
	if got := len(fr.Spans(t1)); got != 3 {
		t.Fatalf("per-trace cap: want 3 retained, got %d", got)
	}
	if fr.DroppedSpans() != 2 {
		t.Fatalf("want 2 dropped spans, got %v", fr.DroppedSpans())
	}
	t2 := mk(1)
	t3 := mk(1) // evicts t1 (maxTraces=2)
	if fr.Spans(t1) != nil {
		t.Fatal("oldest trace must be evicted")
	}
	if len(fr.Spans(t2)) != 1 || len(fr.Spans(t3)) != 1 {
		t.Fatal("young traces must survive eviction")
	}
	if fr.EvictedTraces() != 1 {
		t.Fatalf("want 1 evicted trace, got %v", fr.EvictedTraces())
	}
	if fr.RetainedTraces() != 2 {
		t.Fatalf("want 2 retained traces, got %v", fr.RetainedTraces())
	}
	for i := 0; i < 6; i++ { // ring holds 4
		fr.Event("fault", t2, "cache_write")
	}
	if got := len(fr.Events(t2)); got != 4 {
		t.Fatalf("event ring: want 4, got %d", got)
	}
	if got := len(fr.Events("nope")); got != 0 {
		t.Fatalf("filtered events: want 0, got %d", got)
	}
}

func TestJSONLRecorder(t *testing.T) {
	var buf bytes.Buffer
	rec := NewJSONLRecorder(&buf)
	tr := NewSeeded(rec, 6)
	s, _ := tr.Start(context.Background(), "lnuca.test.jsonl")
	s.SetAttr("status", "ok")
	s.Finish()
	var got Span
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("span log line is not JSON: %v\n%s", err, buf.String())
	}
	if got.Name != "lnuca.test.jsonl" || got.TraceID != s.TraceID {
		t.Fatalf("bad span line: %+v", got)
	}
	if rec.Err() != nil {
		t.Fatalf("unexpected recorder error: %v", rec.Err())
	}
}

func TestTeeAndRecorderFunc(t *testing.T) {
	var a, b Collector
	var n int
	tee := Tee(&a, nil, &b, RecorderFunc(func(Span) { n++ }))
	tr := NewSeeded(tee, 7)
	s, _ := tr.Start(context.Background(), "lnuca.test.tee")
	s.Finish()
	if len(a.Drain()) != 1 || len(b.Drain()) != 1 || n != 1 {
		t.Fatal("tee must fan out to every non-nil recorder")
	}
}

func TestStartAtAndFinishAt(t *testing.T) {
	var col Collector
	tr := NewSeeded(&col, 8)
	start := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	end := start.Add(3 * time.Second)
	s, _ := tr.StartAt(context.Background(), "lnuca.run.measure", start)
	s.FinishAt(end)
	got := col.Drain()[0]
	if !got.Start.Equal(start) || !got.End.Equal(end) {
		t.Fatalf("explicit bounds not honored: %v..%v", got.Start, got.End)
	}
}

func TestValidSpanRejects(t *testing.T) {
	good := Span{TraceID: strings.Repeat("a", 32), SpanID: strings.Repeat("b", 16), Name: "lnuca.x.y"}
	if err := ValidSpan(good); err != nil {
		t.Fatalf("good span rejected: %v", err)
	}
	cases := []Span{
		{TraceID: "short", SpanID: good.SpanID, Name: "n"},
		{TraceID: good.TraceID, SpanID: "0000000000000000", Name: "n"},
		{TraceID: good.TraceID, SpanID: good.SpanID, Name: ""},
		{TraceID: good.TraceID, SpanID: good.SpanID, Name: "n", Parent: "xyz"},
	}
	for i, c := range cases {
		if err := ValidSpan(c); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestTracezHandler(t *testing.T) {
	fr := NewFlightRecorder(0, 0, 0)
	tr := NewSeeded(fr, 9)
	root, ctx := tr.Start(context.Background(), "lnuca.orch.job")
	child, _ := StartSpan(ctx, "lnuca.orch.run")
	child.Finish()
	root.Finish()
	fr.Event("lease_granted", root.TraceID, "lease-000001 worker=w1")

	h := fr.Handler()
	idx := httptest.NewRecorder()
	h.ServeHTTP(idx, httptest.NewRequest("GET", "/debug/tracez", nil))
	if !strings.Contains(idx.Body.String(), root.TraceID) {
		t.Fatal("index must list the trace")
	}
	det := httptest.NewRecorder()
	h.ServeHTTP(det, httptest.NewRequest("GET", "/debug/tracez?trace="+root.TraceID, nil))
	body := det.Body.String()
	for _, want := range []string{"lnuca.orch.job", "lnuca.orch.run", "lease_granted"} {
		if !strings.Contains(body, want) {
			t.Errorf("trace page missing %q", want)
		}
	}
}

// FuzzParseHeader: a traceparent arrives from whoever calls the service.
// No value panics the parser; one it accepts names a valid context whose
// own rendering parses back to it and differs from the input only in the
// version and flags bytes; one it refuses leaves the context as it was.
func FuzzParseHeader(f *testing.F) {
	_, ctx := New(nil).Start(context.Background(), "lnuca.worker.execute")
	f.Add(Inject(ctx)) // what a worker really sends
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, header string) {
		sc, ok := ParseHeader(header)
		got := FromContext(Extract(context.Background(), header))
		if !ok {
			if sc != (SpanContext{}) || got != (SpanContext{}) {
				t.Fatalf("%q refused, yet yields %+v / %+v", header, sc, got)
			}
			return
		}
		if !sc.Valid() || got != sc {
			t.Fatalf("%q accepted as %+v (valid %v), Extract carries %+v", header, sc, sc.Valid(), got)
		}
		out := sc.Header()
		if back, ok := ParseHeader(out); !ok || back != sc {
			t.Fatalf("%q: Header() %q parses to %+v, %v; want %+v", header, out, back, ok, sc)
		}
		if want := "00" + header[2:len(header)-2] + "01"; out != want {
			t.Fatalf("%q: Header() = %q, want %q", header, out, want)
		}
	})
}
