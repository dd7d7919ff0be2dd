// Package obs is the repository's dependency-free observability layer:
// a concurrency-safe metrics registry with Prometheus text exposition,
// slog-based structured logging helpers, HTTP instrumentation
// middleware, and build-info reporting.
//
// The registry holds three instrument kinds — monotonic counters,
// set/add gauges, and histograms with declared bucket bounds — either
// as scalars or as label vectors. All instruments are lock-free on the
// update path (atomic adds and CAS loops); the registry mutex is taken
// only at registration and scrape time. That makes an instrument cheap
// enough to update from the simulator's per-job bookkeeping and the
// HTTP hot path without contention.
//
// Exposition follows the Prometheus text format, version 0.0.4: one
// HELP and one TYPE line per family, families sorted by name, label
// values escaped, histograms rendered as cumulative le-bucket series
// plus _sum and _count. WritePrometheus never emits a family name
// twice, which the format forbids and the scrape-format tests pin.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Instrument kinds, in TYPE-line spelling.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric: a kind, a HELP string, an optional label
// schema, and the set of instruments (one per distinct label-value
// tuple; scalars use the empty tuple).
type family struct {
	name    string
	help    string
	kind    string
	labels  []string  // label names, fixed at registration
	buckets []float64 // histogram upper bounds (without +Inf)

	mu       sync.Mutex
	children map[string]sample // key: label values joined with 0xff
}

// sample is anything that can render itself as exposition lines.
type sample interface {
	write(w io.Writer, fam *family, labelValues []string) error
}

// Registry is a set of metric families. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnScrape registers fn to run at the start of every WritePrometheus
// call, before any family is rendered. Components use it to refresh a
// mutually-consistent snapshot that their Func instruments then read,
// so one scrape never mixes counter values from different instants.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// lookup returns the family for name, creating it on first use. A
// second registration with the same name must agree on kind, label
// schema and buckets — a conflicting redefinition is a programming
// error and panics immediately rather than corrupting the scrape.
func (r *Registry) lookup(name, help, kind string, labels []string, buckets []float64) *family {
	if err := checkName(name); err != nil {
		panic("obs: " + err.Error())
	}
	for _, l := range labels {
		if err := checkLabel(l); err != nil {
			panic("obs: " + err.Error())
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q redefined as %s (was %s)", name, kind, f.kind))
		}
		if !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q redefined with labels %v (was %v)", name, labels, f.labels))
		}
		if !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q redefined with different buckets", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]sample),
	}
	r.families[name] = f
	return f
}

// child returns the instrument for one label-value tuple, creating it
// with mk on first use.
func (f *family) child(values []string, mk func() sample) sample {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.children[key]; ok {
		return s
	}
	s := mk()
	f.children[key] = s
	return s
}

// Counter returns the registered counter, creating it on first use.
// Calling Counter twice with the same name returns the same instrument,
// so independent subsystems can share a metric without coordination.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, kindCounter, nil, nil)
	return f.child(nil, func() sample { return &Counter{} }).(*Counter)
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, kindGauge, nil, nil)
	return f.child(nil, func() sample { return &Gauge{} }).(*Gauge)
}

// Histogram returns the registered histogram, creating it on first use.
// buckets are the upper bounds of the non-+Inf buckets and must be
// strictly increasing; the +Inf overflow bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(name, buckets)
	f := r.lookup(name, help, kindHistogram, nil, buckets)
	return f.child(nil, func() sample { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterFunc registers a counter whose value is read by calling fn at
// scrape time — for totals another subsystem already maintains. fn must
// be safe to call concurrently and should be monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.lookup(name, help, kindCounter, nil, nil)
	f.child(nil, func() sample { return counterFunc(fn) })
}

// GaugeFunc registers a gauge read by calling fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindGauge, nil, nil)
	f.child(nil, func() sample { return gaugeFunc(fn) })
}

// CounterVec is a counter family partitioned by a fixed label schema.
type CounterVec struct{ fam *family }

// CounterVec returns the registered labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label; use Counter")
	}
	return &CounterVec{fam: r.lookup(name, help, kindCounter, labels, nil)}
}

// With returns the counter for one label-value tuple, creating it on
// first use. The tuple length must match the registered label schema.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.child(values, func() sample { return &Counter{} }).(*Counter)
}

// HistogramVec is a histogram family partitioned by a fixed label schema.
type HistogramVec struct{ fam *family }

// HistogramVec returns the registered labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label; use Histogram")
	}
	checkBuckets(name, buckets)
	return &HistogramVec{fam: r.lookup(name, help, kindHistogram, labels, buckets)}
}

// With returns the histogram for one label-value tuple, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.child(values, func() sample { return newHistogram(v.fam.buckets) }).(*Histogram)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): families sorted by name, one HELP
// and one TYPE line each, children sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	children := make([]sample, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.Unlock()
	if len(children) == 0 {
		return nil // a vec with no children yet renders nothing
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	for i, k := range keys {
		var values []string
		if len(f.labels) > 0 {
			values = strings.Split(k, "\xff")
		}
		if err := children[i].write(w, f, values); err != nil {
			return err
		}
	}
	return nil
}

// ContentType is the Content-Type of WritePrometheus output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// labelPairs renders {a="x",b="y"} for the family's schema plus any
// extra pairs (used for histogram le labels). Empty schema and no
// extras renders the empty string.
func labelPairs(fam *family, values []string, extraName, extraValue string) string {
	if len(fam.labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range fam.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(fam.labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double-quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// checkName validates a metric name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

// checkLabel validates a label name: [a-zA-Z_][a-zA-Z0-9_]*, with the
// __ prefix reserved by Prometheus.
func checkLabel(name string) error {
	if name == "" {
		return fmt.Errorf("empty label name")
	}
	if strings.HasPrefix(name, "__") {
		return fmt.Errorf("reserved label name %q", name)
	}
	for i, c := range name {
		ok := c == '_' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return fmt.Errorf("invalid label name %q", name)
		}
	}
	return nil
}

func checkBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets must be strictly increasing", name))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], 1) {
		panic(fmt.Sprintf("obs: histogram %q must not declare +Inf; the overflow bucket is implicit", name))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
