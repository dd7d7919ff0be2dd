// Package tracez is the repository's dependency-free distributed
// tracing model: spans with trace/span/parent identity, wall-clock
// bounds, bounded attributes and an error status, propagated across
// process hops with a W3C-traceparent-style header. It exists so a
// fleet-executed job reads as ONE story — client submit, coordinator
// queue and dispatch, worker lease/fetch/build/warmup/measure — instead
// of three process-local logs stitched by eyeball.
//
// Design constraints, in order:
//
//   - Zero cost when off. Every entry point is nil-safe: a nil *Tracer,
//     a nil *Span and a context without a tracer all no-op, so
//     instrumentation sites are unconditional and never branch on
//     configuration.
//   - Out of the kernel. Spans bound phases (build/warmup/measure) from
//     the outside using exp.Phases durations after the fact; nothing in
//     this package is ever called from the simulator hot loop, and
//     nothing here lands in content-addressed cache payloads.
//   - Dependency-free. Standard library only, plus the repo's own obs
//     registry, on which FlightRecorder.Metered exports the recorder's
//     instruments.
//
// Span names are string literals in the `lnuca.` dotted namespace
// (lnuca.orch.run, lnuca.worker.execute, ...), and attr keys follow the
// metric labels' low-cardinality denylist. The root package's
// TestInstrumentCatalog checks both against testdata/instruments.txt
// over a run of the whole stack. That is what keeps the
// lnuca_spans_recorded_total{name} metric bounded.
package tracez

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// HeaderName is the propagation header carried on every traced HTTP
// request, client → coordinator and coordinator → worker (the latter
// rides the lease response body rather than a header, since workers
// pull). The value is W3C-traceparent-STYLE:
//
//	00-<32 hex trace id>-<16 hex span id>-01
//
// with one deliberate divergence: an all-zero span id is legal and
// means "trace identity only, no parent span". A client that wants
// correlation without running a tracer can mint just a trace id; the
// server then roots the trace itself instead of parenting under a span
// that will never arrive (which is how orphan parents are avoided by
// construction).
const HeaderName = "traceparent"

const (
	traceIDHexLen = 32
	spanIDHexLen  = 16
	zeroSpanID    = "0000000000000000"
	zeroTraceID   = "00000000000000000000000000000000"
)

// SpanContext is the propagated identity: which trace, and which span
// (if any) new work should parent under.
type SpanContext struct {
	TraceID string // 32 lowercase hex chars
	SpanID  string // 16 lowercase hex chars; "" or all-zero = no parent
}

// Valid reports whether the context carries a usable trace identity.
func (sc SpanContext) Valid() bool {
	return isHex(sc.TraceID, traceIDHexLen) && sc.TraceID != zeroTraceID
}

// HasParent reports whether the context names a parent span (and not
// just a bare trace identity).
func (sc SpanContext) HasParent() bool {
	return sc.Valid() && isHex(sc.SpanID, spanIDHexLen) && sc.SpanID != zeroSpanID
}

// Header renders the traceparent value, or "" for an invalid context.
func (sc SpanContext) Header() string {
	if !sc.Valid() {
		return ""
	}
	span := sc.SpanID
	if !isHex(span, spanIDHexLen) {
		span = zeroSpanID
	}
	return "00-" + sc.TraceID + "-" + span + "-01"
}

// ParseHeader decodes a traceparent value. It accepts any version byte
// (per W3C forward-compatibility) but requires our field shape.
func ParseHeader(s string) (SpanContext, bool) {
	// "vv-" + 32 + "-" + 16 + "-" + "ff"
	if len(s) != 2+1+traceIDHexLen+1+spanIDHexLen+1+2 {
		return SpanContext{}, false
	}
	if s[2] != '-' || s[2+1+traceIDHexLen] != '-' || s[len(s)-3] != '-' {
		return SpanContext{}, false
	}
	if !isHex(s[:2], 2) || !isHex(s[len(s)-2:], 2) {
		return SpanContext{}, false
	}
	sc := SpanContext{
		TraceID: s[3 : 3+traceIDHexLen],
		SpanID:  s[4+traceIDHexLen : 4+traceIDHexLen+spanIDHexLen],
	}
	if !sc.Valid() || !isHex(sc.SpanID, spanIDHexLen) {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Attr is one span attribute. Keys are literals (snake_case, not on the
// high-cardinality denylist, checked by TestInstrumentCatalog); values
// should come from bounded sets (benchmark names, worker names, status
// words) — never raw job IDs, keys or URLs.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation. Exported fields are the wire/JSONL
// shape; a Span is built through a Tracer and finished exactly once
// with Finish/FinishAt, after which it is an inert value safe to copy,
// marshal and ship. Spans are not goroutine-safe: one span belongs to
// one goroutine until finished.
type Span struct {
	TraceID string    `json:"trace_id"`
	SpanID  string    `json:"span_id"`
	Parent  string    `json:"parent_id,omitempty"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Attrs   []Attr    `json:"attrs,omitempty"`
	// Status is "" for ok, "error" for failed operations.
	Status string `json:"status,omitempty"`
	// Note carries the error message when Status is "error".
	Note string `json:"note,omitempty"`

	tracer   *spanSink
	finished bool
}

// spanSink pairs the recorder a finished span reports to with nothing
// else; it exists so Span stays marshal-clean (one unexported pointer,
// no locks).
type spanSink struct{ rec Recorder }

// Context returns the span's propagation identity, for parenting
// children or rendering a header. Safe on nil (zero context).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// SetAttr attaches one attribute. The key must be a literal. No-op on
// nil or finished spans.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.finished {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetError marks the span failed. No-op on nil spans or nil errors.
func (s *Span) SetError(err error) {
	if s == nil || err == nil || s.finished {
		return
	}
	s.Status = "error"
	s.Note = err.Error()
}

// Finish ends the span now and hands it to the tracer's recorder.
// Safe on nil; finishing twice records once.
func (s *Span) Finish() {
	s.FinishAt(time.Now())
}

// FinishAt ends the span at an explicit instant — used when span
// boundaries are reconstructed from measured phase durations rather
// than observed live.
func (s *Span) FinishAt(t time.Time) {
	if s == nil || s.finished {
		return
	}
	s.finished = true
	s.End = t
	if s.tracer != nil && s.tracer.rec != nil {
		s.tracer.rec.Record(*s)
	}
}

// Recorder receives finished spans. Implementations must be
// goroutine-safe; Record must never call back into a Tracer (recorders
// are leaf components).
type Recorder interface {
	Record(Span)
}

// Tracer mints span identities and parents spans off the ambient
// context. A nil *Tracer is a valid, inert tracer.
type Tracer struct {
	sink *spanSink

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a Tracer recording finished spans to rec, with IDs drawn
// from a crypto-seeded PRNG.
func New(rec Recorder) *Tracer {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// Fall back to the wall clock; uniqueness, not secrecy, is the bar.
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return NewSeeded(rec, int64(binary.LittleEndian.Uint64(b[:])))
}

// NewSeeded returns a Tracer with a deterministic ID stream — for tests
// that assert on stable span identities.
func NewSeeded(rec Recorder, seed int64) *Tracer {
	return &Tracer{sink: &spanSink{rec: rec}, rng: rand.New(rand.NewSource(seed))}
}

// Recorder returns the tracer's recorder (nil for a nil tracer), so
// span ingestion endpoints can land remote spans in the same sink local
// spans use.
func (t *Tracer) Recorder() Recorder {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.sink.rec
}

// newID returns n random bytes, n a multiple of 8 up to 16, as lowercase
// hex: one draw per 8 bytes.
func (t *Tracer) newID(n int) string {
	var raw [16]byte
	t.mu.Lock()
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(raw[i:], t.rng.Uint64())
	}
	t.mu.Unlock()
	// An all-zero ID is reserved; the chance is negligible but the
	// contract ("zero means absent") must hold unconditionally.
	if raw == ([16]byte{}) {
		raw[0] = 1
	}
	var text [32]byte
	hex.Encode(text[:], raw[:n])
	return string(text[:2*n])
}

// Start opens a span named name, parented under ctx's span context when
// one is present (or adopting just its trace ID when the context is
// parentless), and returns the span plus a derived context carrying the
// new span's identity and this tracer. On a nil tracer it returns
// (nil, ctx) — the nil span absorbs all use.
func (t *Tracer) Start(ctx context.Context, name string) (*Span, context.Context) {
	return t.StartAt(ctx, name, time.Now())
}

// StartAt is Start with an explicit start instant, for spans whose
// beginning was observed before the tracer got involved (lease idle
// waits, reconstructed phases).
func (t *Tracer) StartAt(ctx context.Context, name string, at time.Time) (*Span, context.Context) {
	if t == nil {
		return nil, ctx
	}
	parent := scopeOf(ctx)
	s := &Span{
		Name:   name,
		Start:  at,
		tracer: t.sink,
		SpanID: t.newID(spanIDHexLen / 2),
	}
	if parent.sc.TraceID == "" {
		s.TraceID = t.newID(traceIDHexLen / 2)
	} else {
		s.TraceID = parent.sc.TraceID
		if parent.hasParent {
			s.Parent = parent.sc.SpanID
		}
	}
	return s, withScope(ctx, scope{tracer: t, sc: s.Context(), hasParent: true})
}

// scope is what a context carries for tracing, as one value: the tracer
// that opens spans and the span context they parent under. Each scope is
// checked once, when it is made (a tracer's own span context is valid by
// construction), so reading one re-checks nothing.
type scope struct {
	tracer    *Tracer
	sc        SpanContext // valid, or zero
	hasParent bool        // sc.HasParent()
}

type scopeKey struct{}

func scopeOf(ctx context.Context) scope {
	if s, ok := ctx.Value(scopeKey{}).(*scope); ok {
		return *s
	}
	return scope{}
}

func withScope(ctx context.Context, s scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, &s)
}

// WithTracer attaches a tracer to ctx so downstream code can open spans
// without holding a Tracer reference. Attaching nil is a no-op.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	s := scopeOf(ctx)
	s.tracer = t
	return withScope(ctx, s)
}

// TracerFrom returns ctx's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	return scopeOf(ctx).tracer
}

// WithSpanContext attaches a propagated span context. Attaching an
// invalid context is a no-op.
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	s := scopeOf(ctx)
	s.sc, s.hasParent = sc, sc.HasParent()
	return withScope(ctx, s)
}

// FromContext returns ctx's span context (zero when absent).
func FromContext(ctx context.Context) SpanContext {
	return scopeOf(ctx).sc
}

// TraceIDFrom returns ctx's trace ID, or "".
func TraceIDFrom(ctx context.Context) string {
	return scopeOf(ctx).sc.TraceID
}

// StartSpan opens a span through ctx's ambient tracer; with no tracer
// in ctx it returns (nil, ctx) and the nil span absorbs all use. This
// is the instrumentation entry point for code that is handed only a
// context (RunFuncs, coordinator dispatch).
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	return TracerFrom(ctx).Start(ctx, name)
}

// StartSpanAt is StartSpan with an explicit start instant.
func StartSpanAt(ctx context.Context, name string, at time.Time) (*Span, context.Context) {
	return TracerFrom(ctx).StartAt(ctx, name, at)
}

// Inject renders ctx's span context as a traceparent value ("" when
// there is nothing to propagate).
func Inject(ctx context.Context) string {
	return FromContext(ctx).Header()
}

// Extract parses a traceparent value into ctx. Malformed or empty
// headers leave ctx unchanged — propagation is best-effort by design.
func Extract(ctx context.Context, header string) context.Context {
	if sc, ok := ParseHeader(header); ok {
		return WithSpanContext(ctx, sc)
	}
	return ctx
}

// ValidSpan reports whether a remotely ingested span carries a
// well-formed identity and a plausible name; ingestion endpoints use it
// to refuse garbage before it lands in the flight recorder.
func ValidSpan(s Span) error {
	if !isHex(s.TraceID, traceIDHexLen) || s.TraceID == zeroTraceID {
		return fmt.Errorf("tracez: bad trace id %q", s.TraceID)
	}
	if !isHex(s.SpanID, spanIDHexLen) || s.SpanID == zeroSpanID {
		return fmt.Errorf("tracez: bad span id %q", s.SpanID)
	}
	if s.Parent != "" && (!isHex(s.Parent, spanIDHexLen) || s.Parent == zeroSpanID) {
		return fmt.Errorf("tracez: bad parent id %q", s.Parent)
	}
	if s.Name == "" || len(s.Name) > 128 {
		return fmt.Errorf("tracez: bad span name %q", s.Name)
	}
	if len(s.Attrs) > 32 {
		return fmt.Errorf("tracez: too many attrs (%d)", len(s.Attrs))
	}
	return nil
}
