package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The update path is one
// atomic add; scrapes read the value atomically. The zero value is
// usable, but counters should come from Registry.Counter so they are
// exported.
//
// The update methods of Counter, Gauge and Histogram — and With on their
// Vec families — are no-ops on a nil receiver, as tracez.Span's are: a
// component built without a Registry holds nil instruments and calls
// them unguarded.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, fam *family, values []string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", fam.name, labelPairs(fam, values, "", ""), c.Value())
	return err
}

// Gauge is a value that can go up and down, stored as float64 bits in
// one atomic word. Set is a plain store; Add is a CAS loop.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, fam *family, values []string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, labelPairs(fam, values, "", ""), formatFloat(g.Value()))
	return err
}

// Histogram counts observations into declared buckets. Each bucket is
// an independent atomic counter; the exposition cumulates them, and
// _count is computed as the cumulative total of all buckets, so the
// le="+Inf" sample always equals _count even when a scrape races
// concurrent Observe calls. _sum is a CAS-added float64 and may trail
// the bucket counts by in-flight observations — the standard, harmless
// slack of lock-free histograms.
type Histogram struct {
	upper   []float64 // strictly increasing bounds, no +Inf
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{
		upper:  upper,
		counts: make([]atomic.Uint64, len(upper)+1), // +1: overflow (+Inf)
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(w io.Writer, fam *family, values []string) error {
	var cum uint64
	for i, bound := range h.upper {
		cum += h.counts[i].Load()
		le := formatFloat(bound)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, labelPairs(fam, values, "le", le), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.upper)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, labelPairs(fam, values, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, labelPairs(fam, values, "", ""), formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.name, labelPairs(fam, values, "", ""), cum)
	return err
}

// counterFunc adapts a read function into a scrape-time counter sample.
type counterFunc func() uint64

func (f counterFunc) write(w io.Writer, fam *family, values []string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", fam.name, labelPairs(fam, values, "", ""), f())
	return err
}

// gaugeFunc adapts a read function into a scrape-time gauge sample.
type gaugeFunc func() float64

func (f gaugeFunc) write(w io.Writer, fam *family, values []string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, labelPairs(fam, values, "", ""), formatFloat(f()))
	return err
}

// ExpBuckets returns n strictly increasing bucket bounds starting at
// start and growing by factor — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
