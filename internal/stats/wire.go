package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The JSON wire form of a Set and a Histogram, which every stored and served
// result carries. The encoders append exactly the bytes json.Marshal gives
// for setJSON and histogramJSON (keys sorted bytewise, floats and awkward
// keys as encoding/json renders them): the test keeps that reflective
// encoder as the reference, so cache files do not depend on which wrote
// them. The decoders scan that canonical shape once and leave any other
// input — escapes, unknown, repeated or differently-cased members, null, a
// negative or fractional count, overflow — to json.Unmarshal into the same
// structs, which stays the definition of what the types accept. DESIGN.md,
// "Result wire form".

// setJSON is the wire form of a Set: two plain maps.
type setJSON struct {
	Counters map[string]uint64  `json:"counters"`
	Scalars  map[string]float64 `json:"scalars,omitempty"`
}

// histogramJSON is the wire form of a Histogram, every bucket included
// (index = sample value), so a decoded histogram keeps the original's range.
type histogramJSON struct {
	Buckets  []uint64 `json:"buckets"`
	Overflow uint64   `json:"overflow,omitempty"`
	Count    uint64   `json:"count"`
	Sum      uint64   `json:"sum"`
	Min      int      `json:"min,omitempty"`
	Max      int      `json:"max,omitempty"`
}

// MarshalJSON renders the set as {"counters": {...}, "scalars": {...}}.
func (s *Set) MarshalJSON() ([]byte, error) {
	counters, scalars := s.Names(), s.ScalarNames()
	// 32 bytes a member is room to spare for a real run; append grows the rest.
	b := append(make([]byte, 0, 32*(1+len(counters)+len(scalars))), `{"counters":`...)
	if s.counters == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '{')
		for i, k := range counters {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(appendKey(b, k), s.counters[k], 10)
		}
		b = append(b, '}')
	}
	if len(scalars) > 0 {
		b = append(b, `,"scalars":{`...)
		for i, k := range scalars {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendFloat(appendKey(b, k), s.scalars[k]); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// MarshalJSON renders the histogram in its wire form.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 3*len(h.buckets)+128), `{"buckets":`...)
	if h.buckets == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range h.buckets {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, v, 10)
		}
		b = append(b, ']')
	}
	if h.overflow != 0 {
		b = strconv.AppendUint(append(b, `,"overflow":`...), h.overflow, 10)
	}
	b = strconv.AppendUint(append(b, `,"count":`...), h.count, 10)
	b = strconv.AppendUint(append(b, `,"sum":`...), h.sum, 10)
	if v := h.Min(); v != 0 {
		b = strconv.AppendInt(append(b, `,"min":`...), int64(v), 10)
	}
	if v := h.Max(); v != 0 {
		b = strconv.AppendInt(append(b, `,"max":`...), int64(v), 10)
	}
	return append(b, '}'), nil
}

// appendKey appends k as a member name with its colon: copied when it is the
// printable ASCII encoding/json copies, rendered by encoding/json when not.
func appendKey(b []byte, k string) []byte {
	for i := 0; i < len(k); i++ {
		if c := k[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(k) // a string always marshals
			return append(append(b, quoted...), ':')
		}
	}
	return append(append(append(b, '"'), k...), '"', ':')
}

// appendFloat appends f as encoding/json's float64 encoder renders it:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21, and
// its UnsupportedValueError for NaN and infinities.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 is written e-9
		b = b[:n-1]
	}
	return b, nil
}

// UnmarshalJSON restores a set written by MarshalJSON. The receiver is
// reset; a zero-value Set becomes usable.
func (s *Set) UnmarshalJSON(data []byte) error {
	p := Scanner{Src: string(data)}
	w, ok := p.set()
	if !ok || !p.End() {
		w = setJSON{}
		if err := json.Unmarshal(data, &w); err != nil {
			return err
		}
	}
	s.setWire(w)
	return nil
}

// setWire makes s the set w describes.
func (s *Set) setWire(w setJSON) {
	s.counters = w.Counters
	s.scalars = w.Scalars
	if s.counters == nil {
		s.counters = make(map[string]uint64)
	}
	if s.scalars == nil {
		s.scalars = make(map[string]float64)
	}
}

// UnmarshalJSON restores a histogram written by MarshalJSON. The receiver
// is reset; a zero-value Histogram becomes usable.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	p := Scanner{Src: string(data)}
	w, ok := p.histogram()
	if !ok || !p.End() {
		w = histogramJSON{}
		if err := json.Unmarshal(data, &w); err != nil {
			return err
		}
	}
	h.setWire(w)
	return nil
}

// setWire makes h the histogram w describes.
func (h *Histogram) setWire(w histogramJSON) {
	if w.Buckets == nil {
		w.Buckets = make([]uint64, 1)
	}
	*h = Histogram{
		buckets:  w.Buckets,
		overflow: w.Overflow,
		count:    w.Count,
		sum:      w.Sum,
		min:      w.Min,
		max:      w.Max,
		any:      w.Count > 0,
	}
}

// Set decodes the set the cursor is at, part of a larger text, as
// UnmarshalJSON does one that is all of it, and leaves the cursor after it.
func (p *Scanner) Set() (*Set, bool) {
	w, ok := p.set()
	s := new(Set)
	s.setWire(w)
	return s, ok
}

// set scans a set in the canonical shape. Keys are slices of Src, so a
// decoded set costs one string for all of them.
func (p *Scanner) set() (setJSON, bool) {
	var w setJSON
	ok := p.List('{', '}', func() bool {
		var ok bool
		switch k, _ := p.Key(); {
		case k == "counters" && w.Counters == nil:
			w.Counters, ok = scanMap(p, (*Scanner).uint)
		case k == "scalars" && w.Scalars == nil:
			w.Scalars, ok = scanMap(p, (*Scanner).float)
		}
		return ok
	})
	return w, ok
}

// scanMap scans {"name":value,...} into a new non-nil map; a repeated
// name keeps its last value, as in encoding/json.
func scanMap[V any](p *Scanner, value func(*Scanner) (V, bool)) (map[string]V, bool) {
	m := make(map[string]V, p.hint(":", '}'))
	ok := p.List('{', '}', func() bool {
		k, ok := p.Key()
		if ok {
			m[k], ok = value(p)
		}
		return ok
	})
	return m, ok
}

// histogramMembers are histogramJSON's member names, in field order.
var histogramMembers = []string{"buckets", "overflow", "count", "sum", "min", "max"}

// Histogram is Set for a histogram.
func (p *Scanner) Histogram() (*Histogram, bool) {
	w, ok := p.histogram()
	h := new(Histogram)
	h.setWire(w)
	return h, ok
}

// histogram is set for a histogram.
func (p *Scanner) histogram() (histogramJSON, bool) {
	var w histogramJSON
	var seen uint
	var num [6]uint64 // the number members' values, placed as in histogramMembers
	ok := p.List('{', '}', func() bool {
		k, _ := p.Key()
		i := slices.Index(histogramMembers, k)
		if i < 0 || seen&(1<<i) != 0 {
			return false
		}
		seen |= 1 << i
		if i > 0 {
			var ok bool
			num[i], ok = p.uint()
			return ok
		}
		w.Buckets = make([]uint64, 0, p.hint(",", ']')+1)
		return p.List('[', ']', func() bool {
			v, ok := p.uint()
			w.Buckets = append(w.Buckets, v)
			return ok
		})
	})
	w.Overflow, w.Count, w.Sum, w.Min, w.Max = num[1], num[2], num[3], int(num[4]), int(num[5])
	return w, ok && num[4] <= math.MaxInt && num[5] <= math.MaxInt
}

// Scanner is a cursor over one JSON text. False means "not the canonical
// shape", never why: the reflective decoder produces the error.
type Scanner struct {
	Src string
	Pos int
}

// space skips whitespace.
func (p *Scanner) space() {
	for p.Pos < len(p.Src) && (p.Src[p.Pos] == ' ' || p.Src[p.Pos] == '\n' || p.Src[p.Pos] == '\t' || p.Src[p.Pos] == '\r') {
		p.Pos++
	}
}

// skip consumes c if it is the next byte.
func (p *Scanner) skip(c byte) bool {
	if p.Pos == len(p.Src) || p.Src[p.Pos] != c {
		return false
	}
	p.Pos++
	return true
}

// eat consumes c if it is the next byte after any whitespace.
func (p *Scanner) eat(c byte) bool {
	p.space()
	return p.skip(c)
}

// End reports whether nothing but whitespace is left.
func (p *Scanner) End() bool {
	p.space()
	return p.Pos == len(p.Src)
}

// List scans the object or array that open begins and end closes, calling
// member with the cursor at each of its members or elements.
func (p *Scanner) List(open, end byte, member func() bool) bool {
	if !p.eat(open) {
		return false
	}
	if p.eat(end) {
		return true
	}
	for member() {
		if !p.eat(',') {
			return p.eat(end)
		}
	}
	return false
}

// hint is how much room to make for the list about to be scanned: a member
// per separator before its closer, but no more than a large result holds.
func (p *Scanner) hint(sep string, end byte) int {
	rest := p.Src[p.Pos:]
	if i := strings.IndexByte(rest, end); i >= 0 {
		rest = rest[:i]
	}
	return min(strings.Count(rest, sep), 1024)
}

// Key scans a member name of unescaped ASCII and the colon after it; the
// name is "" whenever it fails.
func (p *Scanner) Key() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	for start := p.Pos; p.Pos < len(p.Src); p.Pos++ {
		switch c := p.Src[p.Pos]; {
		case c == '"':
			k := p.Src[start:p.Pos]
			if p.Pos++; !p.eat(':') {
				return "", false
			}
			return k, true
		case c < ' ' || c >= utf8.RuneSelf || c == '\\':
			return "", false
		}
	}
	return "", false
}

// Value skips the value the cursor is at, of any shape, up to the comma or
// closer that ends it. It checks nothing inside: whether that is JSON is for
// encoding/json to say.
func (p *Scanner) Value() bool {
	for depth := 0; p.Pos < len(p.Src); p.Pos++ {
		switch p.Src[p.Pos] {
		case '"':
			for p.Pos++; p.Pos < len(p.Src) && p.Src[p.Pos] != '"'; p.Pos++ {
				if p.Src[p.Pos] == '\\' {
					p.Pos++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth < 0 {
				return true
			}
		case ',':
			if depth == 0 {
				return true
			}
		}
	}
	return false
}

// digits skips a run of decimal digits and returns its length.
func (p *Scanner) digits() int {
	start := p.Pos
	for p.Pos < len(p.Src) && p.Src[p.Pos]-'0' <= 9 {
		p.Pos++
	}
	return p.Pos - start
}

// integer skips JSON's int production less the sign: a lone 0, or digits
// not starting with 0.
func (p *Scanner) integer() bool {
	zero := p.skip('0')
	return zero != (p.digits() > 0)
}

// uint scans an unsigned decimal integer that fits 64 bits. A fraction or
// an exponent after it is for the caller's next eat to refuse.
func (p *Scanner) uint() (v uint64, ok bool) {
	p.space()
	start := p.Pos
	ok = p.integer()
	for _, c := range []byte(p.Src[start:p.Pos]) {
		d := uint64(c - '0')
		ok = ok && v <= (math.MaxUint64-d)/10
		v = v*10 + d
	}
	return v, ok
}

// float scans a number in JSON's grammar and converts it the way
// encoding/json does, out-of-range included.
func (p *Scanner) float() (float64, bool) {
	p.space()
	start := p.Pos
	p.skip('-')
	ok := p.integer()
	if p.skip('.') {
		ok = ok && p.digits() > 0
	}
	if p.skip('e') || p.skip('E') {
		_ = p.skip('+') || p.skip('-')
		ok = ok && p.digits() > 0
	}
	f, err := strconv.ParseFloat(p.Src[start:p.Pos], 64)
	return f, ok && err == nil
}
