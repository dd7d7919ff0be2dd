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
	w, ok := scanSet(string(data))
	if !ok {
		w = setJSON{}
		if err := json.Unmarshal(data, &w); err != nil {
			return err
		}
	}
	s.counters = w.Counters
	s.scalars = w.Scalars
	if s.counters == nil {
		s.counters = make(map[string]uint64)
	}
	if s.scalars == nil {
		s.scalars = make(map[string]float64)
	}
	return nil
}

// UnmarshalJSON restores a histogram written by MarshalJSON. The receiver
// is reset; a zero-value Histogram becomes usable.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	w, ok := scanHistogram(string(data))
	if !ok {
		w = histogramJSON{}
		if err := json.Unmarshal(data, &w); err != nil {
			return err
		}
	}
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
	return nil
}

// scanSet decodes src when it is a set in the canonical shape. Keys are
// slices of src, so a decoded set costs one string for all of them.
func scanSet(src string) (setJSON, bool) {
	var w setJSON
	p := scanner{src: src}
	ok := p.list('{', '}', func() bool {
		var ok bool
		switch k, _ := p.key(); {
		case k == "counters" && w.Counters == nil:
			w.Counters, ok = scanMap(&p, (*scanner).uint)
		case k == "scalars" && w.Scalars == nil:
			w.Scalars, ok = scanMap(&p, (*scanner).float)
		}
		return ok
	})
	return w, ok && p.end()
}

// scanMap scans {"name":value,...} into a new non-nil map; a repeated
// name keeps its last value, as in encoding/json.
func scanMap[V any](p *scanner, value func(*scanner) (V, bool)) (map[string]V, bool) {
	m := make(map[string]V, p.hint(":", '}'))
	ok := p.list('{', '}', func() bool {
		k, ok := p.key()
		if ok {
			m[k], ok = value(p)
		}
		return ok
	})
	return m, ok
}

// histogramMembers are histogramJSON's member names, in field order.
var histogramMembers = []string{"buckets", "overflow", "count", "sum", "min", "max"}

// scanHistogram is scanSet for a histogram.
func scanHistogram(src string) (histogramJSON, bool) {
	var w histogramJSON
	var seen uint
	var num [6]uint64 // the number members' values, placed as in histogramMembers
	p := scanner{src: src}
	ok := p.list('{', '}', func() bool {
		k, _ := p.key()
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
		return p.list('[', ']', func() bool {
			v, ok := p.uint()
			w.Buckets = append(w.Buckets, v)
			return ok
		})
	})
	w.Overflow, w.Count, w.Sum, w.Min, w.Max = num[1], num[2], num[3], int(num[4]), int(num[5])
	return w, ok && num[4] <= math.MaxInt && num[5] <= math.MaxInt && p.end()
}

// scanner is a cursor over one JSON text. False means "not the canonical
// shape", never why: the reflective decoder produces the error.
type scanner struct {
	src string
	pos int
}

// space skips whitespace.
func (p *scanner) space() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\n' || p.src[p.pos] == '\t' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

// skip consumes c if it is the next byte.
func (p *scanner) skip(c byte) bool {
	if p.pos == len(p.src) || p.src[p.pos] != c {
		return false
	}
	p.pos++
	return true
}

// eat consumes c if it is the next byte after any whitespace.
func (p *scanner) eat(c byte) bool {
	p.space()
	return p.skip(c)
}

// end reports whether nothing but whitespace is left.
func (p *scanner) end() bool {
	p.space()
	return p.pos == len(p.src)
}

// list scans the object or array that open begins and end closes, calling
// member with the cursor at each of its members or elements.
func (p *scanner) list(open, end byte, member func() bool) bool {
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
func (p *scanner) hint(sep string, end byte) int {
	rest := p.src[p.pos:]
	if i := strings.IndexByte(rest, end); i >= 0 {
		rest = rest[:i]
	}
	return min(strings.Count(rest, sep), 1024)
}

// key scans a member name of unescaped ASCII and the colon after it; the
// name is "" whenever it fails.
func (p *scanner) key() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	for start := p.pos; p.pos < len(p.src); p.pos++ {
		switch c := p.src[p.pos]; {
		case c == '"':
			k := p.src[start:p.pos]
			if p.pos++; !p.eat(':') {
				return "", false
			}
			return k, true
		case c < ' ' || c >= utf8.RuneSelf || c == '\\':
			return "", false
		}
	}
	return "", false
}

// digits skips a run of decimal digits and returns its length.
func (p *scanner) digits() int {
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos]-'0' <= 9 {
		p.pos++
	}
	return p.pos - start
}

// integer skips JSON's int production less the sign: a lone 0, or digits
// not starting with 0.
func (p *scanner) integer() bool {
	zero := p.skip('0')
	return zero != (p.digits() > 0)
}

// uint scans an unsigned decimal integer that fits 64 bits. A fraction or
// an exponent after it is for the caller's next eat to refuse.
func (p *scanner) uint() (v uint64, ok bool) {
	p.space()
	start := p.pos
	ok = p.integer()
	for _, c := range []byte(p.src[start:p.pos]) {
		d := uint64(c - '0')
		ok = ok && v <= (math.MaxUint64-d)/10
		v = v*10 + d
	}
	return v, ok
}

// float scans a number in JSON's grammar and converts it the way
// encoding/json does, out-of-range included.
func (p *scanner) float() (float64, bool) {
	p.space()
	start := p.pos
	p.skip('-')
	ok := p.integer()
	if p.skip('.') {
		ok = ok && p.digits() > 0
	}
	if p.skip('e') || p.skip('E') {
		_ = p.skip('+') || p.skip('-')
		ok = ok && p.digits() > 0
	}
	f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	return f, ok && err == nil
}
