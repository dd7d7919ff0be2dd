package stats

import (
	"reflect"
	"strings"
	"testing"
)

// TestScannerWalksAroundStats: driven over a text that holds a set and a
// histogram among members of any shape, the exported cursor decodes the two
// as UnmarshalJSON does their text alone, stops right after each, and steps
// over everything else whole — strings that hold brackets, nesting, scalars.
func TestScannerWalksAroundStats(t *testing.T) {
	setText, histText := realResult(t)
	other := `[1,{"a":"}],\"","b":[[]],"c":{"d":null}},"]",-1.5e3,true]`
	text := ` {"id":"x\\", "stats" : ` + string(setText) + `,"other":` + other + ` , "n":12,"load_latency":` + string(histText) + "\n,\"last\":\"\"}\n"
	var wantSet Set
	var wantHist Histogram
	if err := wantSet.UnmarshalJSON(setText); err != nil {
		t.Fatal(err)
	}
	if err := wantHist.UnmarshalJSON(histText); err != nil {
		t.Fatal(err)
	}
	p := Scanner{Src: text}
	var keys []string
	ok := p.List('{', '}', func() bool {
		k, ok := p.Key()
		keys = append(keys, k)
		start := p.Pos
		switch k {
		case "stats":
			var got *Set
			if got, ok = p.Set(); !ok || !reflect.DeepEqual(got, &wantSet) || strings.TrimSpace(text[start:p.Pos]) != string(setText) {
				t.Errorf("Set: ok=%v, scanned %q", ok, text[start:p.Pos])
			}
		case "load_latency":
			var got *Histogram
			if got, ok = p.Histogram(); !ok || !reflect.DeepEqual(got, &wantHist) || text[start:p.Pos] != string(histText) {
				t.Errorf("Histogram: ok=%v, scanned %q", ok, text[start:p.Pos])
			}
		default:
			ok = ok && p.Value()
			if k == "other" && strings.TrimSpace(text[start:p.Pos]) != other {
				t.Errorf("Value skipped %q, want %q", text[start:p.Pos], other)
			}
		}
		return ok
	})
	if want := []string{"id", "stats", "other", "n", "load_latency", "last"}; !ok || !p.End() || !reflect.DeepEqual(keys, want) {
		t.Errorf("walk ok=%v at %d of %d, members %q, want %q", ok, p.Pos, len(text), keys, want)
	}
	for _, bad := range []string{`{"counters":{"a":1}`, `{"counters":{"a":-1}}`, `{"Counters":{}}`, `null`, ``} {
		p := Scanner{Src: bad}
		if _, ok := p.Set(); ok {
			t.Errorf("Set accepted %q", bad)
		}
	}
	for _, open := range []string{`"abc`, `"a\`, `[1,2`, `{"a":"b"`} {
		if p := (Scanner{Src: open}); p.Value() {
			t.Errorf("Value found an end to %q", open)
		}
	}
}
