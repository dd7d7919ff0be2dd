package orchestrator

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"

	"repro/internal/stats"
)

// The JSON form of whatever carries results: a JobRecord, the bodies that
// list records, a fleet completion, a bare JobResult. AppendJSON has
// encoding/json write the half kilobyte around a result and splices the
// result's 2.4-11 KB in untouched; Unmarshal decodes a result's statistics
// with the stats scanners, cuts their text out and has encoding/json read
// the rest. The bytes are json.Marshal's and the values json.Unmarshal's:
// the tests keep both as the reference. DESIGN.md, "Result wire form".

var (
	resultType  = reflect.TypeOf((*JobResult)(nil))
	recordsType = reflect.TypeOf([]JobRecord(nil))
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
	comma := func() {
		if b[len(b)-1] != '{' {
			b = append(b, ',')
		}
	}
	switch f := rv.Field(sp.at).Interface().(type) {
	case *JobResult:
		if f != nil {
			comma()
			b, err = AppendJSON(append(b, sp.key...), f)
		}
	case []JobRecord:
		comma()
		if b = append(b, sp.key...); f == nil {
			b = append(b, "null"...)
			break
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
	if err != nil {
		return b, err
	}
	tail, err := json.Marshal(sides[1].Interface())
	if len(tail) > len("{}") {
		comma()
		b = append(b, tail[1:len(tail)-1]...)
	}
	return append(b, '}'), err
}

// Unmarshal is json.Unmarshal(data, v) for a zero v of a type AppendJSON
// splices, and may overwrite data. It decodes each result's stats and
// load_latency itself, puts null where they were, has json.Unmarshal decode
// the rest and hands each result its two. A text with anything the walk does
// not expect — an escaped, repeated or differently-cased member name where it
// looks, a null or malformed value, statistics the scanners refuse — goes to
// json.Unmarshal as it came, which so decides what is accepted and words
// every error.
func Unmarshal(data []byte, v interface{}) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() || rv.Type() != resultType && spliceOf(rv.Type().Elem()) == nil {
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
