package hier

import (
	"strings"
	"testing"
)

// rows splits a rendered Table I into [parameter, value] pairs.
func rows(t TableI) [][2]string {
	lines := strings.Split(strings.TrimRight(t.Render().String(), "\n"), "\n")
	w := strings.Index(lines[1], "value") // the parameter column's width
	var out [][2]string
	for _, l := range lines[3:] { // past the title, header and rule
		out = append(out, [2]string{strings.TrimSpace(l[:w]), strings.TrimSpace(l[w:])})
	}
	return out
}

// TestTableIRendersItsValues: Table I is rendered from the table, not
// restated beside it. One value changed in each home — the core, the
// controllers here, the fabric, the D-NUCA, main memory, the energy —
// changes the row that shows it and no other.
func TestTableIRendersItsValues(t *testing.T) {
	base := rows(DefaultTableI())
	for _, c := range []struct {
		row    string
		change func(*TableI)
	}{
		{"ROB / LSQ", func(t *TableI) { t.Core.ROBSize = 256 }},
		{"L2", func(t *TableI) { t.L2.Bank.Ways = 16 }},
		{"L-NUCA tile", func(t *TableI) { t.LNUCA.TileBank.SizeBytes = 16 << 10 }},
		{"D-NUCA", func(t *TableI) { t.DNUCA.Rows = 8 }},
		{"Main memory", func(t *TableI) { t.Memory.FirstChunkCycles = 300 }},
		{"L3", func(t *TableI) { t.energy.l3.readPJ = 30 }},
	} {
		tab := DefaultTableI()
		c.change(&tab)
		got := rows(tab)
		if len(got) != len(base) {
			t.Fatalf("%s: %d rows, want %d", c.row, len(got), len(base))
		}
		found := false
		for i, r := range got {
			if r[0] == c.row {
				found = true
			}
			if changed := r != base[i]; changed != (r[0] == c.row) {
				t.Errorf("changing %s: row %q changed=%v:\n  %s\n  %s", c.row, r[0], changed, base[i][1], r[1])
			}
		}
		if !found {
			t.Errorf("no row %q", c.row)
		}
	}
}

// TestTableIRendering: the rendered table says how the model charges
// the latencies it does not take from a Table I cell as written.
func TestTableIRendering(t *testing.T) {
	out := DefaultTableI().Render().String()
	for _, want := range []string{
		"3-cycle initiation charged, 3-cycle completion not modelled",
		"2-cycle completion as its 2 port crossings",
		"1-cycle: a hit at level L, distance D costs L + D",
		"128 / 64",
		"200-cycle first chunk",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}
