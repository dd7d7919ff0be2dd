// Package stats provides the statistics plumbing used by the simulator:
// named counters, aggregate means (the paper reports harmonic means of
// IPC), and plain-text table rendering for regenerating the paper's
// tables and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Set is the named counters produced by one simulation run. It holds
// counts only: a mean or a ratio is worked out from them when a report
// is printed (Ratio), so a measured window's delta carries it too. The
// zero value is not usable; call NewSet.
type Set struct {
	counters map[string]uint64
}

// NewSet returns an empty statistics set.
func NewSet() *Set { return newSet(0) }

// newSet returns an empty set with room for that many counters, for a
// caller that knows what it is about to fill in.
func newSet(counters int) *Set {
	return &Set{counters: make(map[string]uint64, counters)}
}

// Add increments the named counter by n.
func (s *Set) Add(name string, n uint64) {
	s.counters[name] += n
}

// Counter returns the current value of a counter (zero if never touched).
func (s *Set) Counter(name string) uint64 {
	return s.counters[name]
}

// Ratio returns counter num over counter den: a mean ("core.load_latency_sum"
// over "core.load_latency_count") or a ratio ("ln.transport_actual_cycles"
// over "ln.transport_min_cycles") of the counts the set holds. It is NaN
// when den is zero, a mean over nothing, which tables render as "—".
func (s *Set) Ratio(num, den string) float64 {
	d := s.counters[den]
	if d == 0 {
		return math.NaN()
	}
	return float64(s.counters[num]) / float64(d)
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

// Clone returns an independent deep copy of the set (nil stays nil), so
// callers handed a cached set cannot corrupt it for later readers.
func (s *Set) Clone() *Set {
	if s == nil {
		return nil
	}
	out := newSet(len(s.counters))
	for k, v := range s.counters {
		out.counters[k] = v
	}
	return out
}

// MergePrefixed adds every counter of other into s with prefix+"."
// prepended: the namespacing a CMP run uses to keep N cores' statistics
// apart in one set ("c0.core.committed", "c1.l1.misses", ...).
func (s *Set) MergePrefixed(prefix string, other *Set) {
	for k, v := range other.counters {
		s.counters[prefix+"."+k] += v
	}
}

// Sub extracts the counters under prefix+"." into a new set with the
// prefix stripped: the inverse of MergePrefixed, used to slice one
// core's view out of a CMP run.
func (s *Set) Sub(prefix string) *Set {
	out := newSet(len(s.counters)) // an upper bound: every counter under the prefix
	p := prefix + "."
	for k, v := range s.counters {
		if strings.HasPrefix(k, p) {
			out.counters[k[len(p):]] = v
		}
	}
	return out
}

// Delta returns end minus start for every counter (clamped at zero), the
// standard way to measure a window after warmup.
func Delta(end, start *Set) *Set {
	out := newSet(len(end.counters))
	for k, v := range end.counters {
		sv := start.counters[k]
		if v >= sv {
			out.counters[k] = v - sv
		}
	}
	return out
}

// String renders the set as "name=value" lines.
func (s *Set) String() string {
	var b strings.Builder
	for _, k := range s.Names() {
		fmt.Fprintf(&b, "%s=%d\n", k, s.counters[k])
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
