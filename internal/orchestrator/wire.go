package orchestrator

import (
	"encoding"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"repro/internal/stats"
)

// The JSON form of whatever carries results: a JobRecord, the bodies that
// list records, a fleet completion, a bare JobResult. AppendJSON writes the
// half kilobyte around a result from a plan compiled from the struct's own
// fields and tags, or has encoding/json write it, and splices the result's
// 2.4-11 KB in untouched; Unmarshal decodes a result's statistics with the
// stats scanners, cuts their text out and has encoding/json read the rest,
// and reads a flat body such as a Request from its plan. The bytes are
// json.Marshal's and the values json.Unmarshal's: the tests keep both as the
// reference, and encoding/json writes and reads whatever a plan does not
// take. DESIGN.md, "Result wire form".

var (
	resultType  = reflect.TypeOf((*JobResult)(nil))
	recordsType = reflect.TypeOf([]JobRecord(nil))
	timeType    = reflect.TypeOf(time.Time{})

	// Types that write or read themselves: encoding/json calls their methods.
	selfCoded = []reflect.Type{
		reflect.TypeOf((*json.Marshaler)(nil)).Elem(),
		reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem(),
		reflect.TypeOf((*json.Unmarshaler)(nil)).Elem(),
		reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem(),
	}
)

// splice is how a struct type with a *JobResult or []JobRecord field is
// written and read: the field, its member name, and the fields either side
// of it as two struct types made of the type's own fields, tags and all, so
// that nothing here names a member or can drift from the struct.
type splice struct {
	at         int
	name, key  string // result and "result":
	head, tail reflect.Type
}

var splices sync.Map // reflect.Type to its *splice, nil when it has none

func spliceOf(t reflect.Type) *splice {
	if sp, ok := splices.Load(t); ok || t.Kind() != reflect.Struct {
		sp, _ := sp.(*splice)
		return sp
	}
	var sp *splice
	fields := reflect.VisibleFields(t)
	for i, f := range fields {
		// A result is left out when nil, a list is null when nil: the two
		// forms the API has, and StructOf takes exported, named fields.
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Type == resultType && opts == "omitempty" || f.Type == recordsType && opts == "" {
			key, _ := json.Marshal(name) // a string always marshals
			sp = &splice{i, name, string(key) + ":", reflect.StructOf(fields[:i]), reflect.StructOf(fields[i+1:])}
		}
		if len(f.Index) > 1 || !f.IsExported() || f.Anonymous {
			sp = nil
			break
		}
	}
	splices.Store(t, sp)
	return sp
}

// AppendJSON appends json.Marshal(v) to b, but a result's bytes as
// MarshalJSON returns them — a cache entry's stored ones — and not walked
// again: v's own when v is a *JobResult, those in the field a splice names
// when v is such a struct or points to one.
func AppendJSON(b []byte, v interface{}) ([]byte, error) {
	if r, ok := v.(*JobResult); ok && r != nil {
		data, err := r.MarshalJSON()
		if err != nil {
			err = &json.MarshalerError{Type: resultType, Err: err} // json.Marshal's wording
		}
		return append(b, data...), err
	}
	var sp *splice
	rv := reflect.Indirect(reflect.ValueOf(v))
	if rv.IsValid() {
		sp = spliceOf(rv.Type())
	}
	if sp == nil {
		data, err := json.Marshal(v)
		return append(b, data...), err
	}
	if p := planOf(rv.Type()); p != nil && p.writes {
		if out, ok := p.write(b, rv); ok {
			return out, nil
		}
	}
	sides := [2]reflect.Value{reflect.New(sp.head), reflect.New(sp.tail)}
	for i := 0; i < rv.NumField(); i++ {
		if i < sp.at {
			sides[0].Elem().Field(i).Set(rv.Field(i))
		} else if i > sp.at {
			sides[1].Elem().Field(i - sp.at - 1).Set(rv.Field(i))
		}
	}
	head, err := json.Marshal(sides[0].Interface())
	if err != nil {
		return b, err
	}
	b = append(b, head[:len(head)-1]...) // the head's members, its brace left open
	if b, err = appendSpliced(b, sp.key, rv.Field(sp.at)); err != nil {
		return b, err
	}
	tail, err := json.Marshal(sides[1].Interface())
	if len(tail) > len("{}") {
		b = append(comma(b), tail[1:len(tail)-1]...)
	}
	return append(b, '}'), err
}

// comma appends the comma before a member of the object b is inside, unless
// the member is its first.
func comma(b []byte) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	return b
}

// appendSpliced appends the member key names with a splice's field f as its
// value, each result its own bytes, or nothing for a nil result.
func appendSpliced(b []byte, key string, f reflect.Value) (_ []byte, err error) {
	switch f := f.Interface().(type) {
	case *JobResult:
		if f != nil {
			b, err = AppendJSON(append(comma(b), key...), f)
		}
	case []JobRecord:
		if b = append(comma(b), key...); f == nil {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i := 0; i < len(f) && err == nil; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b, err = AppendJSON(b, &f[i])
		}
		b = append(b, ']')
	}
	return b, err
}

// A plan writes and reads a struct type's members as encoding/json does,
// compiled once from the type's own fields and tags. It writes strings,
// bools, integers, float64s, time.Times, and structs, pointers and slices
// of those; it reads an object whose members are each once, by the exact
// name, a printable-ASCII string without escapes or a non-negative integer
// that fits. Whatever else a value or a text holds, encoding/json writes or
// reads it.
type plan struct {
	members []member
	splice  int  // the field a splice writes, or -1
	writes  bool // every member has a writer, the splice's aside
}

// A member is one field as encoding/json names it.
type member struct {
	name  string // as the tag gives it
	key   string // as encoding/json writes it, with its colon
	at    int    // the field's index
	omit  bool   // omitempty
	write writer // nil where only encoding/json writes the value
	read  bool   // the field is a string or an integer a plan reads
}

// A writer appends v as encoding/json writes it, or reports false for a
// value encoding/json must write: a NaN, a time RFC 3339 cannot hold.
type writer func(b []byte, v reflect.Value) ([]byte, bool)

var plans sync.Map // reflect.Type to its *plan, nil when it has none

func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p := compile(t, map[reflect.Type]bool{})
	plans.Store(t, p)
	return p
}

// compile plans struct type t. It returns nil for a type with an embedded
// field, a tag option other than omitempty, a member name that is not plain
// or is there twice, for one that codes itself, and for one that holds
// itself (open lists the types being compiled).
func compile(t reflect.Type, open map[reflect.Type]bool) *plan {
	if t.Kind() != reflect.Struct || selfCodes(t) || open[t] {
		return nil
	}
	open[t] = true
	defer delete(open, t)
	p := &plan{splice: -1, writes: true}
	if sp := spliceOf(t); sp != nil {
		p.splice = sp.at
	}
	seen := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if f.Anonymous {
			return nil
		}
		if !f.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		if opts != "" && opts != "omitempty" || !plainName(name) || seen[name] {
			return nil
		}
		seen[name] = true
		key, _ := json.Marshal(name) // a string always marshals
		m := member{name: name, key: string(key) + ":", at: i, omit: opts != ""}
		if i != p.splice {
			m.write = writerOf(f.Type, open)
			p.writes = p.writes && m.write != nil
		}
		switch f.Type.Kind() {
		case reflect.String, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			m.read = !selfCodes(f.Type)
		}
		p.members = append(p.members, m)
	}
	return p
}

// plainName reports whether encoding/json takes name as the tag spells it:
// letters, digits and underscores.
func plainName(name string) bool {
	for _, c := range name {
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' {
			return false
		}
	}
	return name != ""
}

// selfCodes reports whether encoding/json writes or reads a t, or a field
// or element of type t, through a method.
func selfCodes(t reflect.Type) bool {
	for _, m := range selfCoded {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			return true
		}
	}
	return false
}

// writerOf returns the writer of a t, or nil when only encoding/json writes
// one.
func writerOf(t reflect.Type, open map[reflect.Type]bool) writer {
	switch {
	case t == timeType:
		return writeTime
	case t.Kind() == reflect.Pointer:
		// A pointer codes as what it points to: its methods are its element's.
		if elem := writerOf(t.Elem(), open); elem != nil {
			return func(b []byte, v reflect.Value) ([]byte, bool) {
				if v.IsNil() {
					return append(b, "null"...), true
				}
				return elem(b, v.Elem())
			}
		}
		return nil
	case selfCodes(t):
		return nil
	}
	switch t.Kind() {
	case reflect.String:
		return func(b []byte, v reflect.Value) ([]byte, bool) { return stats.AppendString(b, v.String()), true }
	case reflect.Bool:
		return func(b []byte, v reflect.Value) ([]byte, bool) { return strconv.AppendBool(b, v.Bool()), true }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(b []byte, v reflect.Value) ([]byte, bool) { return strconv.AppendInt(b, v.Int(), 10), true }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return func(b []byte, v reflect.Value) ([]byte, bool) { return strconv.AppendUint(b, v.Uint(), 10), true }
	case reflect.Float64:
		return func(b []byte, v reflect.Value) ([]byte, bool) {
			out, err := stats.AppendFloat(b, v.Float())
			return out, err == nil
		}
	case reflect.Struct:
		if p := compile(t, open); p != nil && p.writes {
			return p.write
		}
	case reflect.Slice:
		// A byte slice is base64 text.
		if elem := writerOf(t.Elem(), open); elem != nil && t.Elem().Kind() != reflect.Uint8 {
			return func(b []byte, v reflect.Value) ([]byte, bool) {
				if v.IsNil() {
					return append(b, "null"...), true
				}
				b = append(b, '[')
				ok := true
				for i := 0; i < v.Len() && ok; i++ {
					if i > 0 {
						b = append(b, ',')
					}
					b, ok = elem(b, v.Index(i))
				}
				return append(b, ']'), ok
			}
		}
	}
	return nil
}

// writeTime writes a time.Time as its MarshalJSON does, when that has a
// text: it refuses a year not four digits wide and a zone of a day or more.
func writeTime(b []byte, v reflect.Value) ([]byte, bool) {
	at := v.Interface().(time.Time)
	_, zone := at.Zone()
	if y := at.Year(); y < 0 || y > 9999 || zone <= -24*3600 || zone >= 24*3600 {
		return b, false
	}
	return append(at.AppendFormat(append(b, '"'), time.RFC3339Nano), '"'), true
}

// write appends struct v's members, the splice's as AppendJSON writes it.
func (p *plan) write(b []byte, v reflect.Value) ([]byte, bool) {
	b = append(b, '{')
	for _, m := range p.members {
		f := v.Field(m.at)
		if m.at == p.splice {
			var err error
			if b, err = appendSpliced(b, m.key, f); err != nil {
				return b, false
			}
			continue
		}
		if m.omit && empty(f) {
			continue
		}
		var ok bool
		if b, ok = m.write(append(comma(b), m.key...), f); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// empty is encoding/json's test for a value omitempty leaves out: a
// negative zero is empty too.
func empty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.Uint() == 0
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	case reflect.Interface, reflect.Pointer:
		return v.IsNil()
	}
	return false
}

// read is json.Unmarshal(data, v) for a zero struct v when data is an
// object the plan reads whole, and false, v left zero, when it is not.
func (p *plan) read(data []byte, v reflect.Value) bool {
	if len(p.members) > 64 {
		return false
	}
	var seen uint64
	s := stats.Scanner{Src: string(data)}
	ok := s.List('{', '}', func() bool {
		k, _ := s.Key() // "" names no member
		for i, m := range p.members {
			if k != m.name || !m.read || seen&(1<<i) != 0 {
				continue
			}
			seen |= 1 << i
			f := v.Field(m.at)
			switch f.Kind() {
			case reflect.String:
				text, ok := s.Text()
				f.SetString(text)
				return ok
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				n, ok := s.Uint()
				f.SetInt(int64(n))
				return ok && n <= math.MaxInt64 && f.Int() == int64(n)
			default:
				n, ok := s.Uint()
				f.SetUint(n)
				return ok && f.Uint() == n
			}
		}
		return false
	}) && s.End()
	if !ok {
		v.SetZero()
	}
	return ok
}

// Unmarshal is json.Unmarshal(data, v) for a zero v, and may overwrite data.
// For a type AppendJSON splices, it decodes each result's stats and
// load_latency itself, puts null where they were, has json.Unmarshal decode
// the rest and hands each result its two. Another struct it reads from its
// plan. A text with anything the walk or the plan does not expect — an
// escaped, repeated, unknown or differently-cased member name where it
// looks, a null or malformed value, statistics the scanners refuse — goes to
// json.Unmarshal as it came, which so decides what is accepted and words
// every error.
func Unmarshal(data []byte, v interface{}) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return json.Unmarshal(data, v)
	}
	if rv.Type() != resultType && spliceOf(rv.Type().Elem()) == nil {
		if p := planOf(rv.Type().Elem()); p != nil && p.read(data, rv.Elem()) {
			return nil
		}
		return json.Unmarshal(data, v)
	}
	c := cutter{p: stats.Scanner{Src: string(data)}}
	if !c.value(rv.Type().Elem()) || !c.p.End() {
		return json.Unmarshal(data, v)
	}
	// Each span held a valid value where a value may stand, and so does the
	// null: json.Unmarshal finds in the rest what it would have in it all.
	w, r := 0, 0
	for _, span := range c.spans {
		w += copy(data[w:], data[r:span[0]])
		w += copy(data[w:], "null")
		r = span[1]
	}
	w += copy(data[w:], data[r:])
	if err := json.Unmarshal(data[:w], v); err != nil {
		return err
	}
	c.results(rv.Elem(), func(r *JobResult) {
		r.Stats, r.LoadLatency = c.found[0].Stats, c.found[0].LoadLatency
		c.found = c.found[1:]
	})
	return nil
}

// cutter walks a text as json.Unmarshal will decode it into a type that
// carries results. It knows the member names the splices give it, stats and
// load_latency, and no other.
type cutter struct {
	p     stats.Scanner
	spans [][2]int     // where the text of each value decoded here is
	found []*JobResult // those values, held for each result object in text order
}

// object walks the object at the cursor, calling member(i) at the value of
// the member called names[i], which it must be once and in that case only,
// and stepping over every other.
func (c *cutter) object(names []string, member func(i int) bool) bool {
	var seen uint
	return c.p.List('{', '}', func() bool {
		k, ok := c.p.Key()
		for i, name := range names {
			if k == name && seen&(1<<i) == 0 {
				seen |= 1 << i
				return member(i)
			}
			ok = ok && !strings.EqualFold(k, name)
		}
		return ok && c.p.Value()
	})
}

// value walks the value at the cursor, which is to decode into a t: a type
// with a splice, or JobResult.
func (c *cutter) value(t reflect.Type) bool {
	if sp := spliceOf(t); sp != nil {
		return c.object([]string{sp.name}, func(int) bool {
			if t.Field(sp.at).Type == resultType {
				return c.value(resultType.Elem())
			}
			return c.p.List('[', ']', func() bool { return c.value(recordsType.Elem()) })
		})
	}
	res := new(JobResult)
	c.found = append(c.found, res)
	return c.object([]string{"stats", "load_latency"}, func(i int) (ok bool) {
		start := c.p.Pos
		if i == 0 {
			res.Stats, ok = c.p.Set()
		} else {
			res.LoadLatency, ok = c.p.Histogram()
		}
		c.spans = append(c.spans, [2]int{start, c.p.Pos})
		return ok && c.p.Pos-start >= len("null")
	})
}

// results calls each with the results json.Unmarshal made in rv: one for
// each result object of the text, in text order.
func (c *cutter) results(rv reflect.Value, each func(*JobResult)) {
	if rv.Type() == resultType.Elem() {
		each(rv.Addr().Interface().(*JobResult))
		return
	}
	switch f := rv.Field(spliceOf(rv.Type()).at).Interface().(type) {
	case *JobResult:
		if f != nil {
			each(f)
		}
	case []JobRecord:
		for i := range f {
			c.results(reflect.ValueOf(&f[i]).Elem(), each)
		}
	}
}
