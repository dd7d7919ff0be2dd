// Package stats provides the statistics plumbing used by the simulator:
// named counters, histograms, aggregate means (the paper reports harmonic
// means of IPC), and plain-text table rendering for regenerating the
// paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Set is a collection of named counters and scalar values produced by one
// simulation run. The zero value is not usable; call NewSet.
type Set struct {
	counters map[string]uint64
	scalars  map[string]float64
}

// NewSet returns an empty statistics set.
func NewSet() *Set { return newSet(0, 0) }

// newSet returns an empty set with room for that many counters and
// scalars, for a caller that knows what it is about to fill in.
func newSet(counters, scalars int) *Set {
	return &Set{
		counters: make(map[string]uint64, counters),
		scalars:  make(map[string]float64, scalars),
	}
}

// Add increments the named counter by n.
func (s *Set) Add(name string, n uint64) {
	s.counters[name] += n
}

// Inc increments the named counter by one.
func (s *Set) Inc(name string) {
	s.counters[name]++
}

// Counter returns the current value of a counter (zero if never touched).
func (s *Set) Counter(name string) uint64 {
	return s.counters[name]
}

// SetScalar records a named floating-point result.
func (s *Set) SetScalar(name string, v float64) {
	s.scalars[name] = v
}

// AddScalar accumulates into a named floating-point result.
func (s *Set) AddScalar(name string, v float64) {
	s.scalars[name] += v
}

// Scalar returns a named floating-point result (zero if never set).
func (s *Set) Scalar(name string) float64 {
	return s.scalars[name]
}

// Names returns all counter names in sorted order.
func (s *Set) Names() []string {
	out := make([]string, 0, len(s.counters))
	for k := range s.counters {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ScalarNames returns all scalar names in sorted order.
func (s *Set) ScalarNames() []string {
	out := make([]string, 0, len(s.scalars))
	for k := range s.scalars {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Clone returns an independent deep copy of the set (nil stays nil), so
// callers handed a cached set cannot corrupt it for later readers.
func (s *Set) Clone() *Set {
	if s == nil {
		return nil
	}
	out := newSet(len(s.counters), len(s.scalars))
	for k, v := range s.counters {
		out.counters[k] = v
	}
	for k, v := range s.scalars {
		out.scalars[k] = v
	}
	return out
}

// Merge adds every counter and scalar of other into s.
func (s *Set) Merge(other *Set) {
	for k, v := range other.counters {
		s.counters[k] += v
	}
	for k, v := range other.scalars {
		s.scalars[k] += v
	}
}

// MergePrefixed adds every counter and scalar of other into s with
// prefix+"." prepended: the namespacing a CMP run uses to keep N cores'
// statistics apart in one set ("c0.core.committed", "c1.l1.misses", ...).
func (s *Set) MergePrefixed(prefix string, other *Set) {
	for k, v := range other.counters {
		s.counters[prefix+"."+k] += v
	}
	for k, v := range other.scalars {
		s.scalars[prefix+"."+k] += v
	}
}

// Sub extracts the entries under prefix+"." into a new set with the
// prefix stripped: the inverse of MergePrefixed, used to slice one
// core's view out of a CMP run.
func (s *Set) Sub(prefix string) *Set {
	out := newSet(len(s.counters), len(s.scalars)) // an upper bound: every entry under the prefix
	p := prefix + "."
	for k, v := range s.counters {
		if strings.HasPrefix(k, p) {
			out.counters[k[len(p):]] = v
		}
	}
	for k, v := range s.scalars {
		if strings.HasPrefix(k, p) {
			out.scalars[k[len(p):]] = v
		}
	}
	return out
}

// Delta returns end minus start for every counter (clamped at zero), the
// standard way to measure a window after warmup. Scalars are copied from
// end, since most are end-of-run summaries.
func Delta(end, start *Set) *Set {
	out := newSet(len(end.counters), len(end.scalars))
	for k, v := range end.counters {
		sv := start.counters[k]
		if v >= sv {
			out.counters[k] = v - sv
		}
	}
	for k, v := range end.scalars {
		out.scalars[k] = v
	}
	return out
}

// Ratio returns counter(num)/counter(den), or 0 when the denominator is 0.
func (s *Set) Ratio(num, den string) float64 {
	d := s.counters[den]
	if d == 0 {
		return 0
	}
	return float64(s.counters[num]) / float64(d)
}

// String renders the set as "name=value" lines, counters first.
func (s *Set) String() string {
	var b strings.Builder
	for _, k := range s.Names() {
		fmt.Fprintf(&b, "%s=%d\n", k, s.counters[k])
	}
	for _, k := range s.ScalarNames() {
		fmt.Fprintf(&b, "%s=%g\n", k, s.scalars[k])
	}
	return b.String()
}

// HarmonicMean returns the harmonic mean of xs. The paper's Figures 4(a)
// and 5(a) report harmonic-mean IPC. Non-positive entries are rejected by
// returning NaN, since a harmonic mean is undefined for them.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// ArithmeticMean returns the arithmetic mean of xs (NaN when empty).
func ArithmeticMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// SpeedupPercent returns the relative improvement of v over base in
// percent: 100*(v-base)/base.
func SpeedupPercent(v, base float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return 100 * (v - base) / base
}

// Histogram is a fixed-bucket histogram of integer samples. Samples beyond
// the last bucket are accumulated in an overflow bucket.
type Histogram struct {
	buckets  []uint64
	overflow uint64
	count    uint64
	sum      uint64
	min, max int
	any      bool
}

// NewHistogram creates a histogram with buckets [0, n).
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		n = 1
	}
	return &Histogram{buckets: make([]uint64, n)}
}

// Observe records one sample.
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	if v < len(h.buckets) {
		h.buckets[v]++
	} else {
		h.overflow++
	}
	h.count++
	h.sum += uint64(v)
	if !h.any || v < h.min {
		h.min = v
	}
	if !h.any || v > h.max {
		h.max = v
	}
	h.any = true
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Clone returns an independent deep copy (nil stays nil), so a snapshot
// taken at a window boundary is immune to later Observes.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	out := *h
	out.buckets = append([]uint64(nil), h.buckets...)
	return &out
}

// Delta returns the histogram of samples observed after start: bucket
// counts, overflow, count and sum subtract pairwise (clamped at zero,
// like Set deltas). start is expected to be an earlier Clone of h (same
// bucket range); a nil start yields a copy of h. Min/Max are recomputed
// from the surviving in-range buckets — for overflow samples the exact
// window extremes are not recoverable, so Max falls back to the run-wide
// maximum when the window saw overflow.
func (h *Histogram) Delta(start *Histogram) *Histogram {
	if h == nil {
		return nil
	}
	if start == nil {
		return h.Clone()
	}
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	out := NewHistogram(len(h.buckets))
	for i, v := range h.buckets {
		var sv uint64
		if i < len(start.buckets) {
			sv = start.buckets[i]
		}
		out.buckets[i] = sub(v, sv)
	}
	out.overflow = sub(h.overflow, start.overflow)
	out.count = sub(h.count, start.count)
	out.sum = sub(h.sum, start.sum)
	for i, v := range out.buckets {
		if v == 0 {
			continue
		}
		if !out.any {
			out.min = i
		}
		out.max = i
		out.any = true
	}
	if out.overflow > 0 {
		if !out.any {
			out.min = len(out.buckets)
		}
		out.max = h.Max()
		out.any = true
	}
	return out
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest sample observed (0 when empty).
func (h *Histogram) Min() int {
	if !h.any {
		return 0
	}
	return h.min
}

// Max returns the largest sample observed (0 when empty).
func (h *Histogram) Max() int {
	if !h.any {
		return 0
	}
	return h.max
}

// Bucket returns the count in bucket v (overflow excluded).
func (h *Histogram) Bucket(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Overflow returns the number of samples that exceeded the bucket range.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Table renders rows of labeled values as fixed-width text: the tool used
// to regenerate the paper's tables.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row of cells. Rows shorter than the header are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row where each cell is built with fmt.Sprint on the
// corresponding value; float64 values are rendered with %.3f, and a NaN —
// a mean over nothing — as "—".
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			if math.IsNaN(v) {
				row = append(row, "—")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
