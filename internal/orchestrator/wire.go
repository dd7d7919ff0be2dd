package orchestrator

import (
	"encoding"
	"encoding/json"
	"math"
	"reflect"
	"slices"
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
// 2.4-11 KB in untouched. Unmarshal reads any of them, and a flat body such
// as a Request, in one walk driven by the same plans, the statistics by the
// stats scanners where they stand; a text with anything the walk does not
// expect goes to json.Unmarshal untouched. The bytes are json.Marshal's and
// the values json.Unmarshal's: the tests keep both as the reference.
// DESIGN.md, "Result wire form".

var (
	resultType    = reflect.TypeOf((*JobResult)(nil))
	recordsType   = reflect.TypeOf([]JobRecord(nil))
	timeType      = reflect.TypeOf(time.Time{})
	setType       = reflect.TypeOf((*stats.Set)(nil))
	histogramType = reflect.TypeOf((*stats.Histogram)(nil))

	// Types that write themselves, and types that read themselves:
	// encoding/json calls their methods.
	selfWriting = []reflect.Type{
		reflect.TypeOf((*json.Marshaler)(nil)).Elem(),
		reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem(),
	}
	selfReading = []reflect.Type{
		reflect.TypeOf((*json.Unmarshaler)(nil)).Elem(),
		reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem(),
	}
)

// splice is how a struct type with a *JobResult or []JobRecord field is
// written: the field, its member name, and the fields either side of it as
// two struct types made of the type's own fields, tags and all, so that
// nothing here names a member or can drift from the struct.
type splice struct {
	at         int
	key        string // "result":
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
			sp = &splice{i, string(key) + ":", reflect.StructOf(fields[:i]), reflect.StructOf(fields[i+1:])}
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
// bools, integers, float64s, time.Times, and structs, pointers, slices and
// string-keyed maps of those. It reads an object whose members are each
// there once and by the exact name: strings of printable ASCII without
// escapes, bools, integers that fit and are not negative, float64s in
// range, times their UnmarshalJSON takes, the statistics the stats scanners
// take, arrays of exactly their length, and structs, pointers, slices and
// string-keyed maps of those; null only where encoding/json makes it nil.
// Whatever else a value or a text holds, encoding/json writes or reads it.
type plan struct {
	members []member
	splice  int  // the field a splice writes, or -1
	writes  bool // every member has a writer, the splice's aside
	reads   bool // every member has a reader, and there are at most 64
}

// A member is one field as encoding/json names it.
type member struct {
	name  string // as the tag gives it
	key   string // as encoding/json writes it, with its colon
	at    int    // the field's index
	omit  bool   // omitempty
	write writer // nil where only encoding/json writes the value
	read  reader // nil where only encoding/json reads the value
}

// A writer appends v as encoding/json writes it, or reports false for a
// value encoding/json must write: a NaN, a time RFC 3339 cannot hold.
type writer func(b []byte, v reflect.Value) ([]byte, bool)

// A reader reads the value at the cursor into v, a zero value, as
// json.Unmarshal does, or reports false for a text encoding/json must read.
type reader func(w *walk, v reflect.Value) bool

// A walk is the cursor of one Unmarshal, over a copy of the bytes it keeps:
// the strings it reads are slices of the copy, and a time reads its own.
type walk struct {
	stats.Scanner
	data []byte
}

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
// or is there twice, and for one that holds itself (open lists the types
// being compiled). A type that writes or reads itself has a plan that does
// not.
func compile(t reflect.Type, open map[reflect.Type]bool) *plan {
	if t.Kind() != reflect.Struct || open[t] {
		return nil
	}
	open[t] = true
	defer delete(open, t)
	p := &plan{splice: -1, writes: !codes(t, selfWriting), reads: !codes(t, selfReading)}
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
		m := member{name: name, key: string(key) + ":", at: i, omit: opts != "", read: readerOf(f.Type, open)}
		if i != p.splice {
			m.write = writerOf(f.Type, open)
			p.writes = p.writes && m.write != nil
		}
		p.reads = p.reads && m.read != nil
		p.members = append(p.members, m)
	}
	p.reads = p.reads && len(p.members) <= 64
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

// codes reports whether encoding/json writes or reads a t, or a field or
// element of type t, through a method of one of the interfaces in coded.
func codes(t reflect.Type, coded []reflect.Type) bool {
	for _, m := range coded {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			return true
		}
	}
	return false
}

// stringKeys reports whether map type t has keys encoding/json writes and
// reads as the strings they are.
func stringKeys(t reflect.Type) bool {
	return t.Key().Kind() == reflect.String && !codes(t.Key(), selfWriting) && !codes(t.Key(), selfReading)
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
	case codes(t, selfWriting):
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
	case reflect.Map:
		// Members in the bytewise order of their keys, as encoding/json sorts.
		if elem := writerOf(t.Elem(), open); elem != nil && stringKeys(t) {
			return func(b []byte, v reflect.Value) ([]byte, bool) {
				if v.IsNil() {
					return append(b, "null"...), true
				}
				keys := v.MapKeys()
				slices.SortFunc(keys, func(x, y reflect.Value) int { return strings.Compare(x.String(), y.String()) })
				b = append(b, '{')
				ok := true
				for i := 0; i < len(keys) && ok; i++ {
					if i > 0 {
						b = append(b, ',')
					}
					b, ok = elem(append(stats.AppendString(b, keys[i].String()), ':'), v.MapIndex(keys[i]))
				}
				return append(b, '}'), ok
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

// readerOf returns the reader of a t, or nil when only encoding/json reads
// one. A null is read where encoding/json makes the value nil — a pointer,
// a slice, a map — and left to encoding/json where it keeps the value.
func readerOf(t reflect.Type, open map[reflect.Type]bool) reader {
	switch {
	case t == timeType:
		return readTime
	case t == setType || t == histogramType:
		// The scans their UnmarshalJSON runs, where they stand.
		return func(w *walk, v reflect.Value) bool {
			if w.Literal("null") {
				return true
			}
			var stat interface{}
			var ok bool
			if t == setType {
				stat, ok = w.Set()
			} else {
				stat, ok = w.Histogram()
			}
			v.Set(reflect.ValueOf(stat))
			return ok
		}
	case t.Kind() == reflect.Pointer:
		if elem := readerOf(t.Elem(), open); elem != nil {
			return func(w *walk, v reflect.Value) bool {
				if w.Literal("null") {
					return true
				}
				v.Set(reflect.New(t.Elem()))
				return elem(w, v.Elem())
			}
		}
		return nil
	case codes(t, selfReading):
		return nil
	}
	switch t.Kind() {
	case reflect.String:
		return func(w *walk, v reflect.Value) bool {
			text, ok := w.Text()
			v.SetString(text)
			return ok
		}
	case reflect.Bool:
		return func(w *walk, v reflect.Value) bool {
			if w.Literal("true") {
				v.SetBool(true)
				return true
			}
			return w.Literal("false")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(w *walk, v reflect.Value) bool {
			n, ok := w.Uint()
			v.SetInt(int64(n))
			return ok && n <= math.MaxInt64 && v.Int() == int64(n)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return func(w *walk, v reflect.Value) bool {
			n, ok := w.Uint()
			v.SetUint(n)
			return ok && v.Uint() == n
		}
	case reflect.Float64:
		return func(w *walk, v reflect.Value) bool {
			f, ok := w.Float()
			v.SetFloat(f)
			return ok
		}
	case reflect.Struct:
		if p := compile(t, open); p != nil && p.reads {
			return p.object
		}
	case reflect.Slice:
		// A byte slice is base64 text.
		if elem := readerOf(t.Elem(), open); elem != nil && t.Elem().Kind() != reflect.Uint8 {
			return func(w *walk, v reflect.Value) bool {
				if w.Literal("null") {
					return true
				}
				more, ok := w.Open('[', ']')
				if ok && !more {
					v.Set(reflect.MakeSlice(t, 0, 0)) // [] is empty, not nil
				}
				for n := 0; more; more, ok = w.Next(']') {
					v.Grow(1)
					v.SetLen(n + 1)
					if !elem(w, v.Index(n)) {
						return false
					}
					n++
				}
				return ok
			}
		}
	case reflect.Array:
		// encoding/json zero-fills a short array and drops what overflows one.
		if elem := readerOf(t.Elem(), open); elem != nil {
			return func(w *walk, v reflect.Value) bool {
				more, ok := w.Open('[', ']')
				n := 0
				for ; more; more, ok = w.Next(']') {
					if n == v.Len() || !elem(w, v.Index(n)) {
						return false
					}
					n++
				}
				return ok && n == v.Len()
			}
		}
	case reflect.Map:
		// A repeated key keeps its last value, as in encoding/json.
		if elem := readerOf(t.Elem(), open); elem != nil && stringKeys(t) {
			return func(w *walk, v reflect.Value) bool {
				if w.Literal("null") {
					return true
				}
				more, ok := w.Open('{', '}')
				if !ok {
					return false
				}
				v.Set(reflect.MakeMap(t))
				key, val := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
				for ; more; more, ok = w.Next('}') {
					k, kok := w.Key()
					val.SetZero()
					if !kok || !elem(w, val) {
						return false
					}
					key.SetString(k)
					v.SetMapIndex(key, val)
				}
				return ok
			}
		}
	}
	return nil
}

// readTime reads a time.Time through its UnmarshalJSON, given the quoted
// text as it stands.
func readTime(w *walk, v reflect.Value) bool {
	text, ok := w.Text()
	return ok && v.Addr().Interface().(*time.Time).UnmarshalJSON(w.data[w.Pos-len(text)-2:w.Pos]) == nil
}

// object reads the object at the cursor into struct v. The search for a
// member starts after the one before it, as a text the plan wrote has them
// in field order.
func (p *plan) object(w *walk, v reflect.Value) bool {
	var seen uint64
	next := 0
	more, ok := w.Open('{', '}')
	for ; more; more, ok = w.Next('}') {
		k, _ := w.Key() // "" names no member
		i := -1
		for j := range p.members {
			if at := (next + j) % len(p.members); p.members[at].name == k {
				i = at
				break
			}
		}
		if i < 0 || seen&(1<<i) != 0 || !p.members[i].read(w, v.Field(p.members[i].at)) {
			return false
		}
		seen |= 1 << i
		next = i + 1
	}
	return ok
}

// read is json.Unmarshal(data, v) for a zero struct v when data is an
// object the plan reads whole, and false, v left zero, when it is not.
func (p *plan) read(data []byte, v reflect.Value) bool {
	if !p.reads {
		return false
	}
	w := walk{Scanner: stats.Scanner{Src: string(data)}, data: data}
	if p.object(&w, v) && w.End() {
		return true
	}
	v.SetZero()
	return false
}

// Unmarshal is json.Unmarshal(data, v) for a zero v. It reads a struct in
// one walk from the plan of its type, and the statistics of each result
// with the stats scanners. A text with anything the walk does not expect —
// an escaped, repeated, unknown or differently-cased member name, a null
// where encoding/json keeps a value, a malformed or overflowing value,
// statistics the scanners refuse — goes to json.Unmarshal as it came, which
// so decides what is accepted and words every error.
func Unmarshal(data []byte, v interface{}) error {
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Pointer && !rv.IsNil() {
		if p := planOf(rv.Type().Elem()); p != nil && p.read(data, rv.Elem()) {
			return nil
		}
	}
	return json.Unmarshal(data, v)
}
