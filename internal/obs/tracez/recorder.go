package tracez

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one trace-correlated occurrence that is not a span: a fault
// injection firing, a lease granted/expired/requeued. Events are how
// the flight recorder answers "what ELSE happened to this trace" —
// chaos debugging reads the span tree and the event strip side by side.
type Event struct {
	Time time.Time `json:"time"`
	// Kind is a bounded word: "fault", "lease_granted", "lease_expired",
	// "lease_released", "requeued", "completed", "failed", "coalesced".
	Kind string `json:"kind"`
	// TraceID correlates the event to a trace; "" when the site had no
	// trace context (e.g. a background store probe).
	TraceID string `json:"trace_id,omitempty"`
	// Detail is free-form but short: the fault point, the lease ID and
	// worker, the attempt number.
	Detail string `json:"detail,omitempty"`
}

// FlightRecorder is the coordinator's bounded in-memory view of recent
// traces: a ring of the last maxTraces traces (each capped at
// maxSpansPerTrace spans) plus a ring of recent events. Everything is
// fixed-size; a busy fleet overwrites its own history instead of
// growing, which is exactly what a flight recorder is.
type FlightRecorder struct {
	mu       sync.Mutex
	traces   map[string]*traceBuf
	order    []string // trace IDs, oldest first, for eviction
	events   []Event  // ring
	eventPos int
	nEvents  int

	maxTraces   int
	maxPerTrace int
	maxEvents   int

	droppedSpans  uint64
	evictedTraces uint64
}

type traceBuf struct {
	spans    []Span
	lastSeen time.Time
}

// Flight-recorder defaults: sized so a 1k-point sweep's recent tail and
// a chaos run's full event strip both fit in a few MB.
const (
	DefaultMaxTraces        = 512
	DefaultMaxSpansPerTrace = 128
	DefaultMaxEvents        = 2048
)

// NewFlightRecorder builds a recorder with the given bounds; zero or
// negative values take the defaults.
func NewFlightRecorder(maxTraces, maxSpansPerTrace, maxEvents int) *FlightRecorder {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpansPerTrace <= 0 {
		maxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &FlightRecorder{
		traces:      make(map[string]*traceBuf),
		events:      make([]Event, maxEvents),
		maxTraces:   maxTraces,
		maxPerTrace: maxSpansPerTrace,
		maxEvents:   maxEvents,
	}
}

// Record lands one finished span. Spans of a brand-new trace may evict
// the oldest retained trace; spans past a trace's cap are counted and
// dropped (the trace keeps its earliest spans — roots arrive early, and
// a rooted partial tree beats a rootless complete one).
func (fr *FlightRecorder) Record(s Span) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	tb, ok := fr.traces[s.TraceID]
	if !ok {
		for len(fr.order) >= fr.maxTraces {
			oldest := fr.order[0]
			fr.order = fr.order[1:]
			delete(fr.traces, oldest)
			fr.evictedTraces++
		}
		tb = &traceBuf{}
		fr.traces[s.TraceID] = tb
		fr.order = append(fr.order, s.TraceID)
	}
	if len(tb.spans) >= fr.maxPerTrace {
		fr.droppedSpans++
		return
	}
	tb.spans = append(tb.spans, s)
	if s.End.After(tb.lastSeen) {
		tb.lastSeen = s.End
	}
}

// Event appends one correlated event to the ring.
func (fr *FlightRecorder) Event(kind, traceID, detail string) {
	if fr == nil {
		return
	}
	now := time.Now()
	fr.mu.Lock()
	fr.events[fr.eventPos] = Event{Time: now, Kind: kind, TraceID: traceID, Detail: detail}
	fr.eventPos = (fr.eventPos + 1) % fr.maxEvents
	if fr.nEvents < fr.maxEvents {
		fr.nEvents++
	}
	fr.mu.Unlock()
}

// Spans returns the retained spans of one trace, sorted by start time
// (nil when the trace is unknown or evicted).
func (fr *FlightRecorder) Spans(traceID string) []Span {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	tb := fr.traces[traceID]
	var out []Span
	if tb != nil {
		out = append([]Span(nil), tb.spans...)
	}
	fr.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Events returns the retained events for one trace ID, oldest first.
// An empty traceID returns every retained event.
func (fr *FlightRecorder) Events(traceID string) []Event {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]Event, 0, fr.nEvents)
	start := fr.eventPos - fr.nEvents
	for i := 0; i < fr.nEvents; i++ {
		e := fr.events[((start+i)%fr.maxEvents+fr.maxEvents)%fr.maxEvents]
		if traceID == "" || e.TraceID == traceID {
			out = append(out, e)
		}
	}
	return out
}

// TraceSummary is one row of the /debug/tracez index.
type TraceSummary struct {
	TraceID  string    `json:"trace_id"`
	Spans    int       `json:"spans"`
	Root     string    `json:"root,omitempty"` // root span name, when retained
	Errors   int       `json:"errors"`
	Start    time.Time `json:"start"`
	LastSeen time.Time `json:"last_seen"`
}

// Traces summarizes every retained trace, most recently active first.
func (fr *FlightRecorder) Traces() []TraceSummary {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	out := make([]TraceSummary, 0, len(fr.order))
	for _, id := range fr.order {
		tb := fr.traces[id]
		ts := TraceSummary{TraceID: id, Spans: len(tb.spans), LastSeen: tb.lastSeen}
		var rootStart time.Time
		for i := range tb.spans {
			s := &tb.spans[i]
			if ts.Start.IsZero() || s.Start.Before(ts.Start) {
				ts.Start = s.Start
			}
			if s.Parent == "" && (ts.Root == "" || s.Start.Before(rootStart)) {
				ts.Root = s.Name
				rootStart = s.Start
			}
			if s.Status == "error" {
				ts.Errors++
			}
		}
		out = append(out, ts)
	}
	fr.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].LastSeen.After(out[j].LastSeen) })
	return out
}

// DroppedSpans counts spans refused by a full per-trace buffer — the
// feed for lnuca_spans_dropped_total.
func (fr *FlightRecorder) DroppedSpans() float64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return float64(fr.droppedSpans)
}

// EvictedTraces counts whole traces overwritten by newer ones.
func (fr *FlightRecorder) EvictedTraces() float64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return float64(fr.evictedTraces)
}

// RetainedTraces reports the current trace count — the feed for the
// lnuca_trace_buffer_traces gauge.
func (fr *FlightRecorder) RetainedTraces() float64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return float64(len(fr.traces))
}

// Collector buffers finished spans in memory — the worker-side
// recorder. A worker collects the spans of one lease execution and
// drains them into the CompleteRequest, so spans cross the fleet
// boundary exactly once, piggybacked on a message that already exists.
type Collector struct {
	mu    sync.Mutex
	spans []Span
}

// Record appends one span.
func (c *Collector) Record(s Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// Drain returns and clears the buffered spans.
func (c *Collector) Drain() []Span {
	c.mu.Lock()
	out := c.spans
	c.spans = nil
	c.mu.Unlock()
	return out
}

// JSONLRecorder appends one JSON object per finished span to w — the
// -span-log sink. Write errors disable the recorder (a broken span log
// must never take the service down) and are reported via Err.
type JSONLRecorder struct {
	mu   sync.Mutex
	w    io.Writer
	enc  *json.Encoder
	err  error
	dead bool
}

// NewJSONLRecorder wraps w. The caller owns closing w.
func NewJSONLRecorder(w io.Writer) *JSONLRecorder {
	return &JSONLRecorder{w: w, enc: json.NewEncoder(w)}
}

// Record writes one span as a JSON line.
func (j *JSONLRecorder) Record(s Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return
	}
	if err := j.enc.Encode(s); err != nil {
		j.err = err
		j.dead = true
	}
}

// Err returns the write error that disabled the recorder, if any.
func (j *JSONLRecorder) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Tee fans finished spans out to several recorders (nil entries are
// skipped) — flight recorder + span log + metrics wrapper compose here.
func Tee(recs ...Recorder) Recorder {
	kept := make([]Recorder, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			kept = append(kept, r)
		}
	}
	return teeRecorder(kept)
}

type teeRecorder []Recorder

func (t teeRecorder) Record(s Span) {
	for _, r := range t {
		r.Record(s)
	}
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(Span)

// Record calls f(s).
func (f RecorderFunc) Record(s Span) { f(s) }
