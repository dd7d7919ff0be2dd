package hier

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/lnuca"
	"repro/internal/mem"
	"repro/internal/sim"
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

// portCrossings is what a hit costs beyond its level's completion and
// bus cycles: the request's crossing of the port and the response's.
const portCrossings = 2

// hitProbe issues one read of addr through port and records the cycle
// it is issued and the cycle its response pops, which is the cycle a
// core would wake the load's consumers.
type hitProbe struct {
	port          *mem.Port
	addr          mem.Addr
	issued, woke  sim.Cycle
	sent, arrived bool
}

func (p *hitProbe) Name() string { return "probe" }

func (p *hitProbe) Eval(k *sim.Kernel) {
	if !p.sent && p.port.Down.CanPush() {
		p.port.Down.Push(mem.Req{ID: 1, Addr: p.addr, Kind: mem.Read, Issued: k.Cycle()})
		p.issued, p.sent = k.Cycle(), true
	}
	if r, ok := p.port.Up.Pop(); ok && r.ID == 1 {
		p.woke, p.arrived = k.Cycle(), true
	}
}

func (p *hitProbe) Commit(k *sim.Kernel) { p.port.Down.Tick() }

// TestL1HitCostsAnRTileHit: the L1 is the r-tile on its own (Table I:
// the same array, ports and completion), so a read hit in either takes
// the same cycles from issue to wake: the L1's completion and bus cycles
// and the two port crossings.
func TestL1HitCostsAnRTileHit(t *testing.T) {
	tab := DefaultTableI()
	const addr = mem.Addr(0x1040)
	hit := func(level func(up, down *mem.Port, ids *mem.IDSource) (sim.Component, *cache.Bank)) sim.Cycle {
		t.Helper()
		var ids mem.IDSource
		up, down := mem.NewPort(tab.PortDepth, tab.PortDepth), mem.NewPort(tab.PortDepth, tab.PortDepth)
		c, bank := level(up, down, &ids)
		bank.Fill(bank.Line(addr), false)
		p := &hitProbe{port: up, addr: addr}
		k := sim.NewKernel()
		k.MustRegister(p)
		k.MustRegister(c)
		for i := 0; i < 100 && !p.arrived; i++ {
			k.Step()
		}
		if !p.arrived {
			t.Fatalf("%s: the read hit never answered", c.Name())
		}
		return p.woke - p.issued
	}
	l1 := hit(func(up, down *mem.Port, ids *mem.IDSource) (sim.Component, *cache.Bank) {
		c := cache.NewController(tab.L1, up, down, ids)
		return c, c.Bank()
	})
	rtile := hit(func(up, down *mem.Port, ids *mem.IDSource) (sim.Component, *cache.Bank) {
		f, err := lnuca.NewFabric(tab.LNUCA, up, down, ids)
		if err != nil {
			t.Fatal(err)
		}
		return f, f.RTileBank()
	})
	want := sim.Cycle(portCrossings + tab.L1.CompletionCycles + tab.L1.BusCycles)
	if l1 != want || rtile != want {
		t.Errorf("read hit, issue to wake: L1 %d cycles, r-tile %d; Table I's L1 is %d", l1, rtile, want)
	}
}
