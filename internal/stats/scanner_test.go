package stats

import (
	"reflect"
	"strings"
	"testing"
)

// TestScannerWalksAroundStats: driven over a text that holds a set and a
// histogram among other members, the exported cursor decodes the two as
// UnmarshalJSON does their text alone and stops right after each.
func TestScannerWalksAroundStats(t *testing.T) {
	setText, histText := realResult(t)
	text := ` {"id":"x", "stats" : ` + string(setText) + `,"n":12,"load_latency":` + string(histText) + "\n,\"last\":true}\n"
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
	more, ok := p.Open('{', '}')
	for ; more; more, ok = p.Next('}') {
		k, _ := p.Key()
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
		case "id":
			_, ok = p.Text()
		case "n":
			_, ok = p.Uint()
		default:
			ok = p.Literal("true")
		}
		if !ok {
			break
		}
	}
	if want := []string{"id", "stats", "n", "load_latency", "last"}; !ok || !p.End() || !reflect.DeepEqual(keys, want) {
		t.Errorf("walk ok=%v at %d of %d, members %q, want %q", ok, p.Pos, len(text), keys, want)
	}
	for _, bad := range []string{`{"counters":{"a":1}`, `{"counters":{"a":-1}}`, `{"Counters":{}}`, `null`, ``} {
		p := Scanner{Src: bad}
		if _, ok := p.Set(); ok {
			t.Errorf("Set accepted %q", bad)
		}
	}
}
