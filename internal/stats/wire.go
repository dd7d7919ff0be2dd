package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The JSON wire form of a Set, which every stored and served result
// carries. The encoder appends exactly the bytes json.Marshal gives for
// setJSON (keys sorted bytewise, awkward keys as encoding/json renders
// them): the test keeps that reflective encoder as the reference, so cache
// files do not depend on which wrote them. The decoder scans that canonical
// shape once and leaves any other input — escapes, unknown, repeated or
// differently-cased members, null, a negative or fractional count,
// overflow — to json.Unmarshal into the same struct, which stays the
// definition of what the type accepts. DESIGN.md, "Result wire form".

// setJSON is the wire form of a Set: one plain map.
type setJSON struct {
	Counters map[string]uint64 `json:"counters"`
}

// MarshalJSON renders the set as {"counters": {...}}.
func (s *Set) MarshalJSON() ([]byte, error) {
	counters := s.Names()
	// 32 bytes a member is room to spare for a real run; append grows the rest.
	b := append(make([]byte, 0, 32*(1+len(counters))), `{"counters":`...)
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
	return append(b, '}'), nil
}

// appendKey appends k as a member name with its colon.
func appendKey(b []byte, k string) []byte {
	return append(AppendString(b, k), ':')
}

// AppendString appends s as encoding/json renders a string: copied when it
// is the printable ASCII encoding/json copies, rendered by encoding/json
// when not.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// AppendFloat appends f as encoding/json's float64 encoder renders it:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21, and
// its UnsupportedValueError for NaN and infinities.
func AppendFloat(b []byte, f float64) ([]byte, error) {
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
	if s.counters == nil {
		s.counters = make(map[string]uint64)
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
	more, ok := p.Open('{', '}')
	for ; more; more, ok = p.Next('}') {
		if k, _ := p.Key(); k != "counters" || w.Counters != nil {
			return w, false
		}
		if w.Counters, ok = p.counters(); !ok {
			return w, false
		}
	}
	return w, ok
}

// counters scans {"name":count,...} into a new non-nil map; a repeated
// name keeps its last value, as in encoding/json.
func (p *Scanner) counters() (map[string]uint64, bool) {
	m := make(map[string]uint64, p.hint())
	more, ok := p.Open('{', '}')
	for ; more; more, ok = p.Next('}') {
		k, kok := p.Key()
		v, vok := p.Uint()
		if !kok || !vok {
			return m, false
		}
		m[k] = v
	}
	return m, ok
}

// Scanner is a cursor over one JSON text. False means "not the canonical
// shape", never why: the reflective decoder produces the error.
type Scanner struct {
	Src string
	Pos int
}

// space skips whitespace.
func (p *Scanner) space() {
	for p.Pos < len(p.Src) && p.Src[p.Pos] <= ' ' && (p.Src[p.Pos] == ' ' || p.Src[p.Pos] == '\n' || p.Src[p.Pos] == '\t' || p.Src[p.Pos] == '\r') {
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

// Open consumes the opener of a list that end closes, and the closer too
// when the list is empty: more reports whether a member or element follows,
// ok whether the text is such a list so far.
func (p *Scanner) Open(open, end byte) (more, ok bool) {
	if !p.eat(open) {
		return false, false
	}
	return !p.eat(end), true
}

// Next consumes what follows a list's member or element: the comma before
// another (more) or the closer end (not more). Anything else is not ok.
func (p *Scanner) Next(end byte) (more, ok bool) {
	if p.eat(',') {
		return true, true
	}
	return false, p.eat(end)
}

// hint is how much room to make for the object about to be scanned: a
// member per colon before its closer, but no more than a large result holds.
func (p *Scanner) hint() int {
	rest := p.Src[p.Pos:]
	if i := strings.IndexByte(rest, '}'); i >= 0 {
		rest = rest[:i]
	}
	return min(strings.Count(rest, ":"), 1024)
}

// Key scans a member name of unescaped ASCII and the colon after it; the
// name is "" whenever it fails.
func (p *Scanner) Key() (string, bool) {
	if k, ok := p.Text(); ok && p.eat(':') {
		return k, true
	}
	return "", false
}

// Text scans a string of unescaped ASCII, which is its own value.
func (p *Scanner) Text() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	src, start := p.Src, p.Pos
	for i := start; i < len(src); i++ {
		switch c := src[i]; {
		case c == '"':
			p.Pos = i + 1
			return src[start:i], true
		case c < ' ' || c >= utf8.RuneSelf || c == '\\':
			return "", false
		}
	}
	return "", false
}

// Literal consumes lit, a JSON literal such as null, if it is next after
// any whitespace.
func (p *Scanner) Literal(lit string) bool {
	p.space()
	if !strings.HasPrefix(p.Src[p.Pos:], lit) {
		return false
	}
	p.Pos += len(lit)
	return true
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

// Uint scans an unsigned decimal integer that fits 64 bits. A fraction or
// an exponent after it is for the caller's next Next to refuse.
func (p *Scanner) Uint() (uint64, bool) {
	p.space()
	src, start, end := p.Src, p.Pos, p.Pos // locals the loop keeps in registers
	var v uint64
	for ; end < len(src) && src[end]-'0' <= 9; end++ {
		v = v*10 + uint64(src[end]-'0')
	}
	p.Pos = end
	switch n := end - start; {
	case n == 0 || n > 1 && src[start] == '0':
		return 0, false
	case n > 19: // past 19 digits a sum can wrap
		v, err := strconv.ParseUint(src[start:end], 10, 64)
		return v, err == nil
	}
	return v, true
}

// Float scans a number in JSON's grammar and converts it the way
// encoding/json does; one out of float64's range is not ok.
func (p *Scanner) Float() (float64, bool) {
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
