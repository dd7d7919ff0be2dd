package hier

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/lnuca"
	"repro/internal/workload"
)

// TestMachineTable: rows are sorted (a Machine lists them in table
// order, which is what keeps its pairs sorted), and every row's Table I
// value is the lnuca.DefaultConfig field it sets, so a row at that value
// drops to the plain key.
func TestMachineTable(t *testing.T) {
	var names []string
	cfg := lnuca.DefaultConfig(DefaultLevels)
	field := map[string]int{
		"ln.link_buf": cfg.LinkBufEntries,
		"ln.routing":  0, // DeterministicRouting false
		"ln.tile_kb":  cfg.TileBank.SizeBytes >> 10,
	}
	for _, p := range params {
		names = append(names, p.name)
		want, ok := field[p.name]
		if got := p.tableI(cfg); !ok || got != want {
			t.Errorf("%s: Table I value %d, want the config's %d", p.name, got, want)
		}
		probe := cfg
		p.set(&probe, want)
		if !reflect.DeepEqual(probe, cfg) {
			t.Errorf("%s: %d is not Table I's", p.name, want)
		}
		if m, err := ResolveMachine(LNUCAL3, map[string]float64{p.name: float64(want)}); err != nil || m != "" {
			t.Errorf("%s at Table I resolves to %q, %v; want the plain machine", p.name, m, err)
		}
	}
	if cfg.DeterministicRouting {
		t.Error("Table I routing is random")
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("rows not sorted by name: %v", names)
	}
}

func TestResolveMachine(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		set  map[string]float64
		want Machine
	}{
		{LNUCAL3, nil, ""},
		{LNUCAL3, map[string]float64{"ln.link_buf": 2, "ln.routing": 0, "ln.tile_kb": 8}, ""}, // Table I spelled out
		{Conventional, map[string]float64{"ln.link_buf": 1}, ""},                              // no fabric to set it on
		{LNUCAL3, map[string]float64{"ln.link_buf": 1}, "ln.link_buf=1"},
		{LNUCADNUCA, map[string]float64{"ln.tile_kb": 4, "ln.routing": 1, "ln.link_buf": 2}, "ln.routing=1,ln.tile_kb=4"},
		{LNUCAL3, map[string]float64{"ln.tile_kb": 16}, "ln.tile_kb=16"},
	} {
		got, err := ResolveMachine(c.kind, c.set)
		if err != nil || got != c.want {
			t.Errorf("ResolveMachine(%v, %v) = %q, %v; want %q", c.kind, c.set, got, err, c.want)
			continue
		}
		// What Values renders resolves to the same machine.
		if again, err := ResolveMachine(c.kind, got.Values()); err != nil || again != got {
			t.Errorf("%q: Values %v resolves to %q, %v", got, got.Values(), again, err)
		}
	}

	for _, set := range []map[string]float64{
		{"ln.link_buffer": 2},
		{"ln.link_buf": 0},
		{"ln.link_buf": 9},
		{"ln.routing": 2},
		{"ln.tile_kb": 4.5},
		{"ln.tile_kb": 3}, // 48 sets: not a power of two
		{"ln.tile_kb": 1e300},
	} {
		// Refused whatever the kind: a value is checked before it is dropped.
		for _, k := range []Kind{LNUCAL3, Conventional} {
			_, err := ResolveMachine(k, set)
			if err == nil {
				t.Errorf("ResolveMachine(%v, %v) accepted", k, set)
				continue
			}
			if !strings.Contains(err.Error(), "ln.tile_kb 2..16") && !strings.Contains(err.Error(), "set count") {
				t.Errorf("ResolveMachine(%v, %v): %v does not list the rows", k, set, err)
			}
		}
	}
}

// TestBuildAppliesMachine: a resolved machine reaches every fabric of a
// build, and the extremes of each row still run to completion.
func TestBuildAppliesMachine(t *testing.T) {
	prof, _ := workload.ByName("403.gcc")
	cmp, err := BuildCMP(LNUCAL3, []workload.Profile{prof, prof}, CMPOptions{Machine: "ln.tile_kb=4"})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range cmp.Fabrics {
		if got := f.TileBank(0).Config().SizeBytes; got != 4<<10 {
			t.Errorf("core %d: tile %d bytes, want 4096", i, got)
		}
	}
	for _, m := range []Machine{"ln.link_buf=1", "ln.link_buf=8", "ln.routing=1", "ln.tile_kb=2", "ln.tile_kb=16"} {
		s, err := Build(LNUCAL3, prof, Options{Machine: m, Seed: 42, MaxInstr: 4000})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		s.Prewarm()
		s.Run(10_000_000)
		if !s.Core.Done() {
			t.Errorf("%s: committed %d of 4000", m, s.Core.Committed)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}
