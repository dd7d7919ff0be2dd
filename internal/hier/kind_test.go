package hier

import (
	"strings"
	"testing"
)

// TestKindTable walks the one table of Fig. 1 organizations. The literal
// strings are the ones the golden-key and result-bytes tests of
// internal/orchestrator embed: a label that moves here orphans stored
// results there.
func TestKindTable(t *testing.T) {
	want := []struct {
		kind    Kind
		family  string         // String(): the content key's hierarchy field
		request string         // RequestName()
		labels  map[int]string // Label at a canonical depth
	}{
		{Conventional, "L2-256KB", "conventional", map[int]string{0: "L2-256KB"}},
		{LNUCAL3, "LN+L3", "ln+l3", map[int]string{2: "LN2-72KB", 3: "LN3-144KB", 4: "LN4-248KB"}},
		{DNUCAOnly, "DN-4x8", "dn-4x8", map[int]string{0: "DN-4x8"}},
		{LNUCADNUCA, "LN+DN-4x8", "ln+dn-4x8", map[int]string{3: "LN3 + DN-4x8"}},
	}
	if len(want) != len(kinds) {
		t.Fatalf("the table has %d kinds, this test knows %d", len(kinds), len(want))
	}
	for _, w := range want {
		k := w.kind
		if k.String() != w.family || k.RequestName() != w.request {
			t.Errorf("Kind(%d): String %q, RequestName %q; want %q, %q", k, k.String(), k.RequestName(), w.family, w.request)
		}
		// Every spelling round-trips, in any case; so does the paper label.
		for _, name := range append([]string{w.family}, kinds[k].names...) {
			for _, spelled := range []string{name, strings.ToUpper(name), "  " + name + " "} {
				if got, err := ParseKind(spelled); err != nil || got != k {
					t.Errorf("ParseKind(%q) = %v, %v; want %v", spelled, got, err, k)
				}
			}
		}
		for levels, label := range w.labels {
			if got := Label(k, levels); got != label {
				t.Errorf("Label(%v, %d) = %q, want %q", k, levels, got, label)
			}
		}

		if !k.HasLNUCA() {
			// A depth means nothing here: anything clears to 0.
			for _, levels := range []int{0, 3, 7} {
				if got, err := Levels(k, levels); err != nil || got != 0 {
					t.Errorf("Levels(%v, %d) = %d, %v; want 0", k, levels, got, err)
				}
			}
			continue
		}
		if got, err := Levels(k, 0); err != nil || got != 3 {
			t.Errorf("Levels(%v, 0) = %d, %v; want the default 3", k, got, err)
		}
		for levels := 2; levels <= 6; levels++ {
			if got, err := Levels(k, levels); err != nil || got != levels {
				t.Errorf("Levels(%v, %d) = %d, %v", k, levels, got, err)
			}
		}
		for _, levels := range []int{1, 7, -1} {
			if _, err := Levels(k, levels); err == nil || !strings.Contains(err.Error(), "unsupported L-NUCA levels") {
				t.Errorf("Levels(%v, %d): err = %v, want unsupported L-NUCA levels", k, levels, err)
			}
		}
	}

	if _, err := ParseKind("l4-extreme"); err == nil || !strings.Contains(err.Error(), "unknown hierarchy") ||
		!strings.Contains(err.Error(), "conventional, ln+l3, dn-4x8, ln+dn-4x8") {
		t.Errorf("ParseKind(bogus): err = %v, want unknown hierarchy naming the four request names", err)
	}
	if _, err := Levels(Kind(99), 3); err == nil {
		t.Error("Levels accepted an unknown kind")
	}
	if s := Kind(99).String(); s != "hier?" {
		t.Errorf("Kind(99) = %q, want hier?", s)
	}
}
